package main

import (
	"context"
	"fmt"

	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/shard"
	"pisd/internal/vec"
)

// traceStatic is the traced run of static-sweep and static-zipf. Its last
// phase performs, for every target, the real Serving.Discover call wrapped
// in one span, then a staged replay of the miss path through the public
// functions of each layer with one span per call, then probes of each
// shard's leg over TCP and of its cloud server directly. Spans are
// recorded here, around the calls into the layers; nothing inside the
// program is instrumented.
func traceStatic(cfg runConfig) (*report, error) {
	rep := newReport()
	w, err := newStaticWorld(cfg)
	if err != nil {
		return nil, err
	}
	rep.lap("generate")
	tr := newTracer()
	if err := rep.usrPhase(cfg, tr); err != nil {
		return nil, err
	}
	rep.lap("usr")
	d, _, err := w.boot()
	if err != nil {
		return nil, err
	}
	w.d = d
	defer d.close()
	if err := w.warm(); err != nil {
		return nil, err
	}
	rep.lap("set-up and warm-up")

	snap := obs.Default.Snapshot()
	closed := runClosed(cfg.clients, share(cfg.seconds, traceClosedShare), w.discoverOp("closed", cfg.clients))
	diff := obs.Default.Snapshot().Diff(snap)
	lanes := openLanes(cfg.sc, cfg.workload, cfg.clients)
	open := runOpen(cfg.seed, cfg.workload, lanes, cfg.sc.OpenRate[cfg.workload], share(cfg.seconds, traceOpenShare), w.discoverOp("open", lanes))
	if err := checkLate(open); err != nil {
		return nil, err
	}
	rep.loadLayers(closed, open, diff)

	single := runClosed(1, share(cfg.seconds, traceSingleShare), w.discoverOp("single", 1))
	rep.count(single)

	gen := w.targets("traced", 0)
	answers := w.record(1)
	traced, err := tracedDiscoveries(cfg, tr, rep, d.stack(), func() (int, []float64, uint64, uint64) {
		t := gen.next()
		return t, w.ds.Profiles[t], uint64(t + 1), uint64(t + 1)
	}, func(t int, matches []frontend.Match) bool {
		answers[0] = append(answers[0], answer{int32(t), matches})
		return true
	})
	if err != nil {
		return nil, err
	}
	rep.count(traced)
	rep.traceOverhead(tr, "frontend.serving.discover", single)
	rep.lap("load")

	recall, _, err := w.quality()
	if err != nil {
		return nil, err
	}
	rep.set("recall_at_10", recall)
	checked, mismatched, err := w.verify()
	if err != nil {
		return nil, err
	}
	rep.failed += mismatched
	rep.notef("oracle: %d answers checked slot-exactly, %d differ", checked, mismatched)
	rep.lap("quality and verify")
	return rep, rep.finishLayers(cfg, tr)
}

// replayStats accumulates what the staged replay counts beside its spans.
type replayStats struct {
	ops           int
	trapdoorBytes int
	prfOps        int64
	bytesOut      int64
	bytesIn       int64
	frames        int64
	unmasked      int64
	profiles      int
	fanoutSelfUs  float64
	transportSelf float64
	overheadUs    float64
	misses        int
}

// discoverStack is the part of a static-scheme deployment the traced phase
// calls into, layer by layer.
type discoverStack struct {
	sf      *frontend.Frontend
	pool    *shard.Pool
	serving *frontend.Serving
	nodes   []*cloudNode
}

// tracedDiscoveries is the single-client traced phase of a workload whose
// operation is Serving.Discover. next yields each operation's target: a
// caller-side handle, the profile, the member's id and the id to exclude
// (0 for none). check receives the real call's answer and reports whether
// it is acceptable.
func tracedDiscoveries(cfg runConfig, tr *tracer, rep *report, d discoverStack,
	next func() (t int, profile []float64, id, exclude uint64), check func(t int, matches []frontend.Match) bool) (phaseStats, error) {
	ctx := context.Background()
	hits := obs.Default.Counter("frontend.cache_hits")
	prf := []*obs.StripedCounter{
		obs.Default.Striped("crypt.prf_pos_ops"), obs.Default.Striped("crypt.prf_mask_ops"), obs.Default.Striped("crypt.prf_mac_ops"),
	}
	prfOps := func() (n int64) {
		for _, c := range prf {
			n += c.Load()
		}
		return n
	}
	params, err := d.sf.IndexParams()
	if err != nil {
		return phaseStats{}, err
	}
	var rs replayStats
	var replayErr error
	fail := func(format string, args ...any) (opKind, bool) {
		if replayErr == nil {
			replayErr = fmt.Errorf(format, args...)
		}
		return opDiscover, false
	}

	st := runClosed(1, share(cfg.seconds, traceTracedShare), func(int) (opKind, bool) {
		t, profile, id, exclude := next()
		op := tr.op()

		// (b) The real call, first, so it meets the deployment as an
		// untraced call would.
		hits0 := hits.Load()
		real := tr.begin(op, 0, "frontend.serving.discover")
		matches, partial, err := d.serving.Discover(ctx, profile, topK, exclude)
		tr.end(real)
		if err != nil || partial {
			return fail("traced discovery of %d: partial=%v err=%v", id, partial, err)
		}
		miss := hits.Load() == hits0
		if miss {
			tr.label(real, "miss")
		} else {
			tr.label(real, "hit")
		}

		// (a) The staged replay of the miss path.
		root := tr.begin(op, 0, "replay")
		sp := tr.begin(op, root, "lsh.hash")
		meta := d.sf.ComputeMeta(profile)
		tr.end(sp)

		prf0 := prfOps()
		sp = tr.begin(op, root, "core.trapdoor")
		td, err := d.sf.TrapdoorForMeta(meta)
		tr.end(sp)
		if err != nil {
			return fail("trapdoor: %v", err)
		}
		rs.prfOps += prfOps() - prf0

		fan := tr.begin(op, root, "shard.fanout")
		ids, cts, partial, err := d.pool.SecRec(ctx, td)
		tr.end(fan)
		if err != nil || partial {
			return fail("fan-out: partial=%v err=%v", partial, err)
		}

		sp = tr.begin(op, root, "crypt.decrypt")
		vecs := make([][]float64, len(cts))
		for i, ct := range cts {
			if vecs[i], err = d.sf.DecryptProfile(ct); err != nil {
				return fail("decrypt candidate %d: %v", ids[i], err)
			}
		}
		tr.end(sp)

		sp = tr.begin(op, root, "vec.rank")
		tk := vec.NewTopK(topK)
		for i, v := range vecs {
			if exclude == 0 || ids[i] != exclude {
				tk.Offer(ids[i], vec.Distance(profile, v))
			}
		}
		ranked := tk.Sorted()
		tr.end(sp)
		tr.end(root)

		replayed := make([]frontend.Match, len(ranked))
		for i, s := range ranked {
			replayed[i] = frontend.Match{ID: s.ID, Distance: s.Score}
		}
		if err := frontend.EqualMatches(replayed, matches); err != nil {
			return fail("replay of %d differs from Serving.Discover: %v", id, err)
		}

		// Probes: each shard's leg over TCP, then the same trapdoor
		// against that shard's cloud server directly.
		probes := tr.begin(op, 0, "probes")
		slowest, legSum, directSum := 0.0, 0.0, 0.0
		for _, n := range d.nodes {
			tx0, rx0 := n.remote.Traffic()
			f0 := counterSum("transport.frames_out", "transport.frames_in")
			leg := tr.begin(op, probes, "transport.leg")
			_, _, err := n.remote.SecRec(ctx, td)
			tr.end(leg)
			if err != nil {
				return fail("leg probe: %v", err)
			}
			tx1, rx1 := n.remote.Traffic()
			rs.bytesOut += tx1 - tx0
			rs.bytesIn += rx1 - rx0
			rs.frames += counterSum("transport.frames_out", "transport.frames_in") - f0

			u0 := counterSum("cloud.buckets_unmasked")
			direct := tr.begin(op, probes, "cloud.secrec")
			_, _, err = n.cs.SecRec(td)
			tr.end(direct)
			if err != nil {
				return fail("direct SecRec: %v", err)
			}
			unmasked := counterSum("cloud.buckets_unmasked") - u0
			if unmasked != int64(params.BucketsPerQuery()) {
				return fail("shard unmasked %d buckets for one trapdoor, want l(d+1)+stash = %d", unmasked, params.BucketsPerQuery())
			}
			rs.unmasked += unmasked
			legUs := float64(tr.spans[leg-1].dur()) / 1e3
			legSum += legUs
			directSum += float64(tr.spans[direct-1].dur()) / 1e3
			slowest = max(slowest, legUs)
		}
		tr.end(probes)

		if rs.ops == 0 {
			rs.trapdoorBytes = td.SizeBytes()
		} else if td.SizeBytes() != rs.trapdoorBytes {
			return fail("trapdoor of %d is %d bytes, earlier ones %d: request size must be constant", id, td.SizeBytes(), rs.trapdoorBytes)
		}
		rs.ops++
		rs.profiles += len(cts)
		rs.fanoutSelfUs += float64(tr.spans[fan-1].dur())/1e3 - slowest
		rs.transportSelf += (legSum - directSum) / float64(len(d.nodes))
		if miss {
			rs.misses++
			rs.overheadUs += float64(tr.spans[real-1].dur()-tr.spans[root-1].dur()) / 1e3
		}
		return opDiscover, check(t, matches)
	})
	if replayErr != nil {
		return st, replayErr
	}
	if rs.ops == 0 {
		return st, fmt.Errorf("traced phase completed no operation")
	}

	pct, err := stageSum(tr, "replay")
	if err != nil {
		return st, err
	}
	n := float64(rs.ops)
	opUs := mean(tr.durationsUs("replay", ""))
	share := func(us float64) float64 { return 100 * us / opUs }
	rep.set("trace.stage_sum_pct", pct)
	rep.set("replay.op_us", opUs)
	rep.set("lsh.hash_us", mean(tr.durationsUs("lsh.hash", "")))
	decrypt := mean(tr.durationsUs("crypt.decrypt", ""))
	rep.set("crypt.decrypt_us", decrypt)
	rep.set("crypt.decrypt_us_per_profile", ratio(decrypt*n, float64(rs.profiles)))
	rep.set("vec.rank_us", mean(tr.durationsUs("vec.rank", "")))
	rep.set("core.trapdoor_pct", share(mean(tr.durationsUs("core.trapdoor", ""))))
	rep.set("shard.fanout_pct", share(mean(tr.durationsUs("shard.fanout", ""))))
	rep.set("shard.fanout_self_pct", share(rs.fanoutSelfUs/n))
	rep.set("transport.leg_pct", share(mean(tr.durationsUs("transport.leg", ""))))
	rep.set("transport.self_pct", share(rs.transportSelf/n))
	rep.set("cloud.secrec_pct", share(mean(tr.durationsUs("cloud.secrec", ""))))
	rep.set("core.trapdoor_bytes", float64(rs.trapdoorBytes))
	rep.set("crypt.prf_ops_per_op", float64(rs.prfOps)/n)
	rep.set("cloud.buckets_unmasked_per_op", float64(rs.unmasked)/n)
	rep.set("transport.bytes_out_per_op", float64(rs.bytesOut)/n)
	rep.set("transport.bytes_in_per_op", float64(rs.bytesIn)/n)
	rep.set("transport.frames_per_op", float64(rs.frames)/n)
	rep.cacheCosts(tr, "frontend.serving.discover", rs.overheadUs, rs.misses)
	rep.notef("traced phase: %d ops replayed (%d misses), stages sum to %.1f%% of the replayed operation", rs.ops, rs.misses, pct)
	return st, nil
}

// cacheCosts records what a miss and a hit of the real call cost in the
// traced phase, and how far a real miss is from its staged replay.
func (r *report) cacheCosts(tr *tracer, call string, overheadUs float64, misses int) {
	miss := median(tr.durationsUs(call, "miss"))
	r.set("frontend.cache.miss_us", miss)
	r.set("frontend.cache.hit_cost_pct", 100*ratio(median(tr.durationsUs(call, "hit")), miss))
	r.set("frontend.serving_overhead_us", ratio(overheadUs, float64(misses)))
}

// traceOverhead records the real call's median inside the traced phase
// against the same single client's untraced median just before.
func (r *report) traceOverhead(tr *tracer, call string, single phaseStats) {
	traced := median(tr.durationsUs(call, "")) / 1e3
	r.set("trace.overhead_pct", 100*(ratio(traced, percentile(single.Lat[opDiscover], 0.5))-1))
}

// counterSum reads named counters of the default registry.
func counterSum(names ...string) (sum int64) {
	for _, n := range names {
		sum += obs.Default.Counter(n).Load()
	}
	return sum
}
