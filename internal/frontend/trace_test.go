package frontend

import (
	"context"
	"testing"

	"pisd/internal/obs"
)

// stageDiff runs one discovery under a fresh ctx-carried trace and returns
// the metrics it moved and the trace.
func stageDiff(t *testing.T, name string, run func(ctx context.Context) error) (obs.Snapshot, *obs.Trace) {
	t.Helper()
	tr := obs.NewTrace(name)
	before := obs.Default.Snapshot()
	if err := run(obs.WithTrace(context.Background(), tr)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return obs.Default.Snapshot().Diff(before), tr
}

// checkStages asserts one discovery fed the stage histograms, the route's
// end-to-end histogram and frontend.discoveries — with the fanout stage
// present exactly when the query had to reach the cloud.
func checkStages(t *testing.T, name string, d obs.Snapshot, total string, hit bool) {
	t.Helper()
	for _, h := range []string{"frontend.trapdoor", "frontend.decrypt", "frontend.rank", total} {
		if d.Histograms[h].Count != 1 {
			t.Errorf("%s: histogram %s observed %d times, want 1", name, h, d.Histograms[h].Count)
		}
	}
	wantFanout := int64(1)
	if hit {
		wantFanout = 0
	}
	if got := d.Histograms["frontend.fanout"].Count; got != wantFanout {
		t.Errorf("%s: histogram frontend.fanout observed %d times, want %d", name, got, wantFanout)
	}
	if d.Counters["frontend.discoveries"] != 1 {
		t.Errorf("%s: frontend.discoveries moved by %d, want 1", name, d.Counters["frontend.discoveries"])
	}
	if hit && d.Counters["frontend.cache_hits"] != 1 {
		t.Errorf("%s: frontend.cache_hits moved by %d, want 1", name, d.Counters["frontend.cache_hits"])
	}
}

// TestDiscoverTraced checks that every route through the one pipeline
// feeds the same stage metrics, and that a trace carried by the context
// lists the same stages in order with Σ stages ≤ total.
func TestDiscoverTraced(t *testing.T) {
	const n, k = 200, 5
	sd := newStaticDeployment(t, n, 2)
	for _, r := range sd.routes(t) {
		d, tr := stageDiff(t, r.name, func(ctx context.Context) error {
			_, err := r.run(ctx, sd.profiles[7:8], k, nil)
			return err
		})
		checkStages(t, r.name, d, r.total, r.hit)
		if !r.hit && d.Histograms["cloud.secrec"].Count < 1 {
			t.Errorf("%s: no cloud.secrec under the fanout stage", r.name)
		}
		if !r.traced {
			if len(tr.Stages) != 0 {
				t.Errorf("%s: route without a ctx recorded a trace: %v", r.name, tr)
			}
			continue
		}
		want := []string{"trapdoor", "fanout", "decrypt", "rank"}
		if r.hit {
			want = []string{"trapdoor", "decrypt", "rank"}
		}
		if len(tr.Stages) != len(want) {
			t.Fatalf("%s: trace %v, want stages %v", r.name, tr, want)
		}
		var sum int64
		for i, st := range tr.Stages {
			if st.Name != want[i] {
				t.Errorf("%s: stage %d = %q, want %q", r.name, i, st.Name, want[i])
			}
			if st.Dur < 0 {
				t.Errorf("%s: stage %q has negative duration", r.name, st.Name)
			}
			sum += st.Dur.Nanoseconds()
		}
		if tr.Total <= 0 || tr.Total.Nanoseconds() < sum {
			t.Errorf("%s: trace total %v shorter than stage sum %dns", r.name, tr.Total, sum)
		}
	}

	dd := newDynDeployment(t, n, 1)
	target := dd.uploads[7]
	for _, r := range dd.routes(t, dd.serving(t)) {
		d, _ := stageDiff(t, r.name, func(context.Context) error {
			_, err := r.run(target.Profile, k, target.ID)
			return err
		})
		checkStages(t, r.name, d, "frontend.dyn_search", r.hit)
	}
}
