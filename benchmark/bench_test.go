package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestSpecMatchesJSON keeps BENCHMARK.json and the tables the program
// prints from in step.
func TestSpecMatchesJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d out of [1,60]", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, b.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(b.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	for i, m := range perLayer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if seen[m.Name] {
			t.Errorf("%s is both an end-to-end and a per-layer metric; a name is used once", m.Name)
		}
	}
}

// TestGeneratorDeterminism: the op script and the open-loop due times of
// every workload are a pure function of the seed.
func TestGeneratorDeterminism(t *testing.T) {
	for _, scaleName := range []string{"smoke", "full"} {
		sc := scales[scaleName]
		for _, w := range workloads {
			a, err := scriptHash(sc, w.Name, 1, 2, 5000)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := scriptHash(sc, w.Name, 1, 2, 5000)
			other, _ := scriptHash(sc, w.Name, 2, 2, 5000)
			if a != again {
				t.Errorf("%s/%s: same seed gave script hashes %s and %s", scaleName, w.Name, a, again)
			}
			if a == other {
				t.Errorf("%s/%s: seeds 1 and 2 gave the same script hash %s", scaleName, w.Name, a)
			}
		}
	}
}

// TestArrivalsDependOnSeedAndRateOnly: a lane's due times do not depend on
// when they are drawn or on what any other lane does, and they scale with
// the rate.
func TestArrivalsDependOnSeedAndRateOnly(t *testing.T) {
	a, b := newArrivals(7, "static-sweep", 3, 100), newArrivals(7, "static-sweep", 3, 100)
	half := newArrivals(7, "static-sweep", 3, 50)
	newArrivals(7, "static-sweep", 2, 100).next() // another lane draws in between
	prev := 0.0
	for i := 0; i < 1000; i++ {
		x, y, z := a.next(), b.next(), half.next()
		if x != y {
			t.Fatalf("arrival %d: %v and %v from the same (seed, stream, lane, rate)", i, x, y)
		}
		if x <= prev {
			t.Fatalf("arrival %d at %v not after %v", i, x, prev)
		}
		if math.Abs(z-2*x) > 1e-9*z {
			t.Fatalf("arrival %d: half the rate is due at %v, want twice %v", i, z, x)
		}
		prev = x
	}
	if mean := prev / 1000; math.Abs(mean-0.01) > 0.002 {
		t.Errorf("mean gap %v s at 100/s, want about 0.01", mean)
	}
}

// TestSpreadOfMatchesPython pins spreadOf to
// statistics.quantiles(v, n=4) and statistics.median.
func TestSpreadOfMatchesPython(t *testing.T) {
	v := []float64{20, 1.0, 2.5, 3.1, 4.7, 5.0, 6.2, 9.9, 10.5, 11}
	if got, want := spreadOf(v), 1.3705357142857144; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadOf = %v, Python gives %v", got, want)
	}
	odd := []float64{3, 1, 2, 5, 4}
	if got, want := spreadOf(odd), 1.0; math.Abs(got-want) > 1e-12 { // q1 1.5, q3 4.5, median 3
		t.Errorf("spreadOf(odd) = %v, want %v", got, want)
	}
}

// TestSmoke runs every workload end to end at smoke scale, untraced and
// traced: every answer must check out, every metric must be reported, the
// end-to-end ones non-zero, and the traced run's stages must sum to the
// replayed operation and land in a readable trace file.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		cfg := runConfig{
			workload: w.Name, seed: 1, seconds: 2 * time.Second,
			sc: scales["smoke"], clients: 2, workDir: t.TempDir(),
		}
		t.Run(w.Name+"/untraced", func(t *testing.T) {
			out, err := runOnce(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(out.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("%s = %+v (reported %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
		})
		t.Run(w.Name+"/traced", func(t *testing.T) {
			out, err := runOnce(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want the %d per-layer ones", len(out.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if _, ok := out.Metrics[m.Name]; !ok {
					t.Errorf("%s not reported", m.Name)
				}
			}
			if pct := out.Metrics["trace.stage_sum_pct"].Value; pct < 95 || pct > 105 {
				t.Errorf("trace.stage_sum_pct = %v, want within 5%% of 100", pct)
			}
			for _, name := range []string{"cloud.leakage_invariant_violations", "crypt.dec_auth_fail", "replica.failovers", "replica.lag"} {
				if v := out.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v, want 0", name, v)
				}
			}
			checkTraceFile(t, filepath.Join(cfg.workDir, "trace-"+w.Name+"-seed1.jsonl"))
		})
	}
}

// checkTraceFile reads a trace back: every line a span that ends no
// earlier than it starts and whose parent, if any, precedes it in the same
// operation.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s line %d: %v", path, len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for i, s := range spans {
		if s.ID != i+1 || s.EndNs < s.StartNs {
			t.Fatalf("span %d: %+v", i+1, s)
		}
		if s.Parent != 0 {
			if s.Parent >= s.ID || spans[s.Parent-1].Op != s.Op {
				t.Fatalf("span %+v has parent %+v", s, spans[s.Parent-1])
			}
		}
	}
}
