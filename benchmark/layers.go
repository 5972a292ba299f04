package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pisd/internal/obs"
)

// closedShare is the part of --seconds an untraced run gives its closed
// loop, which every end-to-end load metric but one is read off; the open
// loop gets the rest.
const closedShare = 0.625

// The traced run (--trace 1) of every workload has the same shape: the
// Usr-tier phase with spans; one set-up; an untraced closed loop with C
// clients and a short open loop, bracketed by obs snapshots and MemStats
// for the counters and ratios; an untraced single-client phase; and the
// traced single-client phase that replays each operation stage by stage.
// The shares below divide --seconds among the four load phases.
const (
	traceClosedShare = 0.25
	traceOpenShare   = 0.15
	traceSingleShare = 0.15
	traceTracedShare = 0.45
)

func share(total time.Duration, s float64) time.Duration {
	return time.Duration(float64(total) * s)
}

// lateLimitMs is the generator lateness beyond which an open-loop phase is
// void: a p99 this far past the due time means the generator stalled, not
// that requests queued. Below it, lateness is CPU queueing every arriving
// request on this box shares, and it is inside the reported latency, which
// is taken from the due time.
const lateLimitMs = 25

// checkLate fails a run whose open-loop generator stalled.
func checkLate(open phaseStats) error {
	if late := percentile(open.LateMs, 0.99); late > lateLimitMs {
		return fmt.Errorf("open-loop generator ran late: p99 %.1f ms past due, limit %d ms", late, lateLimitMs)
	}
	return nil
}

// sumCounters adds up the counters of diff whose name has the given
// prefix and suffix ("shard.", ".retries" sums over shards).
func sumCounters(diff obs.Snapshot, prefix, suffix string) float64 {
	var sum int64
	for name, v := range diff.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += v
		}
	}
	return float64(sum)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// loadLayers records the per-layer metrics read off the untraced closed
// and open loops of a traced run: allocation, the serving path's cache,
// coalescer and gate, and the cloud and shard counters. diff is the obs
// activity over the closed loop.
func (r *report) loadLayers(closed, open phaseStats, diff obs.Snapshot) {
	r.count(closed)
	r.count(open)
	ops := float64(closed.Attempted - closed.Failed)
	updates := float64(len(closed.Lat[opDelete]) + len(closed.Lat[opInsert]))
	p50, p99 := closed.latency(opDiscover, 0.50), closed.latency(opDiscover, 0.99)
	r.set("closed.discover_p50_ms", p50)
	r.set("closed.discover_p99_ms", p99)
	r.set("update.p50_per_discover_p50", ratio(closed.updateLatency(0.50), p50))
	r.set("update.p99_per_discover_p99", ratio(closed.updateLatency(0.99), p99))
	r.set("open_p99_ms", open.latency(opDiscover, 0.99))
	r.set("gen_late_p99_ms", percentile(open.LateMs, 0.99))
	r.set("runtime.allocs_per_op", ratio(float64(closed.Mem.Mallocs), ops))
	r.set("runtime.alloc_bytes_per_op", ratio(float64(closed.Mem.AllocBytes), ops))
	r.set("runtime.gc_cycles", float64(closed.Mem.GCCycles))

	c := func(name string) float64 { return float64(diff.Counters[name]) }
	r.set("frontend.cache.hit_ratio", ratio(c("frontend.cache_hits"), c("frontend.cache_hits")+c("frontend.cache_misses")))
	r.set("frontend.cache.invalidations_per_update", ratio(c("frontend.cache_invalidations"), updates))
	batch := diff.Histograms["frontend.coalesce_batch"]
	r.set("frontend.coalesce.batch_mean", ratio(float64(batch.Sum), float64(batch.Count)))
	r.set("frontend.coalesce.flushes_per_op", ratio(c("frontend.coalesce_flushes"), ops))
	r.set("frontend.admission.rejected", c("frontend.admission_rejected"))
	r.set("cloud.profiles_served_per_op", ratio(c("cloud.profiles_served"), ops))
	r.set("shard.retries_per_op", ratio(sumCounters(diff, "shard.", ".retries"), ops))
	r.set("cloud.dyn_buckets_fetched_per_op", ratio(c("cloud.dyn_buckets_fetched"), ops))
	r.set("cloud.dyn_buckets_stored_per_update", ratio(c("cloud.dyn_buckets_stored"), updates))
	r.set("subs.evals_per_update", ratio(c("subs.evals"), updates))
	r.set("subs.notifications_per_update", ratio(c("subs.notifications"), updates))
	r.notef("closed loop (untraced): %d ops in %.2fs, %d failed; open loop: %d ops, %d failed", closed.Attempted, closed.Wall.Seconds(), closed.Failed, open.Attempted, open.Failed)
}

// finishLayers records what is read over a whole run — the collector's
// pauses, and the counters that must read zero — and writes the trace.
func (r *report) finishLayers(cfg runConfig, tr *tracer) error {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.set("runtime.gc_pause_ms", float64(mem.PauseTotalNs)/1e6)
	total := obs.Default.Snapshot()
	r.set("cloud.leakage_invariant_violations", float64(total.Counters["cloud.leakage_invariant_violations"]))
	r.set("crypt.dec_auth_fail", float64(total.Counters["crypt.dec_auth_fail"]))
	r.set("replica.failovers", float64(total.Counters["replica.failovers"]))
	r.set("replica.lag", float64(total.Gauges["replica.lag"]))
	for _, name := range []string{"cloud.leakage_invariant_violations", "crypt.dec_auth_fail", "replica.failovers", "replica.lag"} {
		if r.metrics[name] != 0 {
			r.failed++
			r.notef("%s = %g, must be 0", name, r.metrics[name])
		}
	}
	path := filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeFile(path); err != nil {
		return err
	}
	r.notef("trace: %d spans of %d operations written to %s", len(tr.spans), tr.ops, path)
	return nil
}

// stageSum checks that the stages of a replayed operation account for the
// operation: the children of every span named root must cover it to
// within 5 %. It returns Σ children / Σ roots in percent.
func stageSum(tr *tracer, root string) (float64, error) {
	var roots, children time.Duration
	isRoot := make(map[int]bool)
	for _, s := range tr.spans {
		if s.Name == root {
			isRoot[s.ID] = true
			roots += s.dur()
		} else if isRoot[s.Parent] {
			children += s.dur()
		}
	}
	if roots == 0 {
		return 0, fmt.Errorf("trace has no %s span", root)
	}
	pct := 100 * float64(children) / float64(roots)
	if pct < 95 || pct > 105 {
		return pct, fmt.Errorf("stages of %s sum to %.1f%% of it, want within 5%%", root, pct)
	}
	return pct, nil
}
