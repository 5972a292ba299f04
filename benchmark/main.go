// Command pisd-bench is the repository's benchmark (BENCHMARK.json): it
// boots each deployment in-process over loopback TCP, drives the
// production entry points with inputs generated from --seed, checks every
// answer, and prints the metrics. See README.md.
//
//	pisd-bench --workload static-sweep --seed 1 --seconds 16 --trace 0
//	pisd-bench --repeat 10            # spread self-check over all workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pisd/internal/frontend"
)

// runConfig is one run's command line, resolved.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	sc       scale
	// clients is C, the number of lockstep closed-loop clients:
	// min(nproc, 4), so the generator does not outnumber the cores it
	// shares with both tiers.
	clients int
	// workDir is where a run puts its files (segment stores, the trace);
	// it lies inside the checkout and is removed or overwritten by the
	// next run.
	workDir string
}

// keySeed makes the deployment's keys, like every other input, a function
// of the run's seed.
func (c runConfig) keySeed() string {
	return fmt.Sprintf("pisd-bench/%s/%d", c.workload, c.seed)
}

// qualityTargets picks the n seeded members whose answers are compared
// with brute force.
func qualityTargets(seed int64, members, n int) []int {
	return rand.New(rand.NewSource(subSeed(seed, "quality", 0))).Perm(members)[:min(n, members)]
}

// report collects one run's outcome.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
	lapStart  time.Time
	laps      []string
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), lapStart: time.Now()}
}

// lap notes how long the part of the run that just ended took, so a run
// that outgrows the time the driver allows it shows where.
func (r *report) lap(name string) {
	now := time.Now()
	r.laps = append(r.laps, fmt.Sprintf("%s %.1fs", name, now.Sub(r.lapStart).Seconds()))
	r.lapStart = now
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a phase's operations to the run's totals.
func (r *report) count(st phaseStats) {
	r.attempted += st.Attempted
	r.failed += st.Failed
}

// loadPhases records the end-to-end metrics every workload derives the
// same way from its closed-loop and open-loop phases. wire is the SF↔CS
// traffic of the closed-loop phase in bytes. The resident-set peak is read
// here, before the harness builds its oracles.
func (r *report) loadPhases(closed, open phaseStats, wire float64) error {
	r.count(closed)
	r.count(open)
	r.set("ops_per_s", closed.opsPerSecond())
	r.set("discover_p50_ms", closed.latency(opDiscover, 0.50))
	r.set("discover_p99_ms", closed.latency(opDiscover, 0.99))
	r.set("open_p50_ms", open.latency(opDiscover, 0.50))
	r.set("cpu_ms_per_op", closed.cpuMsPerOp())
	r.set("wire_bytes_per_op", wire/float64(closed.Attempted-closed.Failed))
	r.notef("closed loop: %d ops in %.2fs, %d failed, %d discovery samples in %d windows (whole phase: %.1f ops/s, p50 %.3f ms, p99 %.3f ms)",
		closed.Attempted, closed.Wall.Seconds(), closed.Failed, len(closed.Lat[opDiscover]), len(closed.Windows),
		float64(closed.Attempted-closed.Failed)/closed.Wall.Seconds(), percentile(closed.Lat[opDiscover], 0.50), percentile(closed.Lat[opDiscover], 0.99))
	r.notef("open loop: %d ops offered in %.2fs, %d failed, %d windows (whole phase: p50 %.3f ms, p99 %.3f ms), generator late p99 %.3f ms",
		open.Attempted, open.Wall.Seconds(), open.Failed, len(open.Windows),
		percentile(open.Lat[opDiscover], 0.50), percentile(open.Lat[opDiscover], 0.99), percentile(open.LateMs, 0.99))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// usrPhase runs the Usr-tier upload pipeline and records usr_upload_ms. It
// runs first in every run, before a deployment exists: a user's client
// shares nothing with the serving tiers but the vocabulary, the LSH
// parameters and the profile key, so it gets a frontend of its own, and
// the heap it measures on is not the one a set-up has just churned (behind
// a gigabyte of serving state the same upload takes a sixth longer).
func (r *report) usrPhase(cfg runConfig, tr *tracer) error {
	in, err := genUsrInputs(cfg.sc, cfg.seed)
	if err != nil {
		return err
	}
	fcfg := frontend.ConfigForPopulation(cfg.sc.VocabWords, cfg.sc.Users)
	fcfg.KeySeed = cfg.keySeed()
	sf, err := frontend.New(fcfg)
	if err != nil {
		return err
	}
	st := runUsrPhase(sf, in, tr)
	r.attempted += len(in.images)
	r.failed += st.Failed
	r.set("usr_upload_ms", percentile(st.UploadMs, goodTime))
	r.set("surf.extract_ms_per_image", mean(st.ExtractMs))
	if st.Images > 0 {
		r.set("surf.descriptors_per_image", float64(st.Descriptors)/float64(st.Images))
	}
	r.set("bow.profile_ms_per_user", mean(st.ProfileMs))
	r.set("crypt.enc_profile_us", mean(st.EncryptUs))
	return nil
}

// output is the run's last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render prints the run in words, then the result line. specs selects the
// metrics: every end-to-end one for an untraced run, every per-layer one
// for a traced run.
func (r *report) render(cfg runConfig, specs []metricSpec, bounded bool) (output, error) {
	out := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	fmt.Printf("workload %s  seed %d  scale %s  seconds %v  clients %d  nproc %d  GOMAXPROCS %d  %s\n",
		cfg.workload, cfg.seed, cfg.sc.Name, cfg.seconds.Seconds(), cfg.clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Println("wall:", strings.Join(r.laps, ", "))
	fmt.Printf("ops attempted %d  succeeded %d  failed %d\n", r.attempted, r.attempted-r.failed, r.failed)
	for _, m := range specs {
		v, ok := r.metrics[m.Name]
		if !ok && bounded {
			return out, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		if bounded {
			fmt.Printf("%-42s %16.6g %-6s %s is better, regression bound %g%%\n", m.Name, v, m.Unit, m.Better, 100*m.Bound)
		} else {
			fmt.Printf("%-42s %16.6g %-6s %s is better\n", m.Name, v, m.Unit, m.Better)
		}
	}
	return out, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload  = flag.String("workload", "", "workload to run: static-sweep, static-zipf, dyn-churn or ingest-build")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 16, "how long the timed phases of the run measure, in total")
		trace     = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced run printing the end-to-end metrics")
		scaleName = flag.String("scale", "full", "input sizes: full (what BENCHMARK.json measures) or smoke (seconds-long, for go test)")
		workDir   = flag.String("workdir", ".bench_build/work", "directory for the run's segment stores and trace file")
		repeat    = flag.Int("repeat", 0, "self-check: run every workload (or only -workload) N times on seeds seed..seed+N-1 and fail when an end-to-end metric's spread exceeds its bound")
	)
	flag.Parse()
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "pisd-bench: unknown scale %q\n", *scaleName)
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, *workload, *seed, *seconds, *scaleName)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		sc:       sc,
		clients:  min(runtime.NumCPU(), 4),
		workDir:  *workDir,
	}
	// A run that has not finished by now never will in the time the
	// driver allows it; stop without a result rather than hang.
	watchdog := time.AfterFunc(time.Duration(sc.Watchdog)*time.Second, func() {
		fmt.Fprintf(os.Stderr, "pisd-bench: run exceeded %d s, aborting\n", sc.Watchdog)
		os.Exit(3)
	})
	defer watchdog.Stop()

	out, err := runOnce(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pisd-bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pisd-bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runOnce performs one run and renders its result.
func runOnce(cfg runConfig, traced bool) (output, error) {
	run := map[string][2]func(runConfig) (*report, error){
		"static-sweep": {runStatic, traceStatic},
		"static-zipf":  {runStatic, traceStatic},
		"dyn-churn":    {runDyn, traceDyn},
		"ingest-build": {runIngest, traceIngest},
	}[cfg.workload]
	if run[0] == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.Name
		}
		sort.Strings(names)
		return output{}, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if traced {
		rep, err := run[1](cfg)
		if err != nil {
			return output{}, err
		}
		return rep.render(cfg, perLayer, false)
	}
	rep, err := run[0](cfg)
	if err != nil {
		return output{}, err
	}
	return rep.render(cfg, endToEnd, true)
}
