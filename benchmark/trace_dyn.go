package main

import (
	"fmt"

	"pisd/internal/core"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/vec"
)

// spanNode decorates a replica group as the serving path sees it, so the
// traced run can time the cloud-facing calls an update makes from outside:
// DynServing is handed these instead of the bare groups. It records only
// while the harness has armed it — around one Insert or Delete, which call
// the owning group sequentially. Searches fan out on several goroutines
// and pass through untouched (the tracer serves one goroutine).
type spanNode struct {
	frontend.DynNode
	rec *nodeRecorder
}

// nodeRecorder is shared by a deployment's spanNodes.
type nodeRecorder struct {
	tr     *tracer
	op     int
	parent int
	armed  bool
}

func (n spanNode) timed(name string, call func() error) error {
	if !n.rec.armed {
		return call()
	}
	sp := n.rec.tr.begin(n.rec.op, n.rec.parent, name)
	err := call()
	n.rec.tr.end(sp)
	return err
}

func (n spanNode) FetchBuckets(refs []core.BucketRef) (b []core.DynBucket, err error) {
	err = n.timed("replica.fetch_buckets", func() error {
		b, err = n.DynNode.FetchBuckets(refs)
		return err
	})
	return b, err
}

func (n spanNode) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	return n.timed("replica.store_buckets", func() error { return n.DynNode.StoreBuckets(refs, buckets) })
}

func (n spanNode) PutProfiles(profiles map[uint64][]byte) error {
	return n.timed("replica.put_profiles", func() error { return n.DynNode.PutProfiles(profiles) })
}

func (n spanNode) DeleteProfile(id uint64) error {
	return n.timed("replica.delete_profile", func() error { return n.DynNode.DeleteProfile(id) })
}

// traceDyn is the traced run of dyn-churn. In its last phase client 0's
// script runs alone: a search is the real DynServing.Search in one span
// followed by a staged replay (hash, each shard's DynClient.Search and
// FetchProfiles against its group, decrypt, rank); an update is the real
// Insert or Delete in one span whose children are the group calls it
// made.
func traceDyn(cfg runConfig) (*report, error) {
	rep := newReport()
	w, err := newDynWorld(cfg)
	if err != nil {
		return nil, err
	}
	rep.lap("generate")
	tr := newTracer()
	if err := rep.usrPhase(cfg, tr); err != nil {
		return nil, err
	}
	rep.lap("usr")
	rec := &nodeRecorder{tr: tr}
	d, _, err := bootDyn(cfg.sc.Dim, w.uploads, cfg.sc.Subs, cfg.keySeed(), func(_ int, n frontend.DynNode) frontend.DynNode {
		return spanNode{DynNode: n, rec: rec}
	})
	if err != nil {
		return nil, err
	}
	w.d = d
	defer d.close()
	seeds, err := w.seedSets()
	if err != nil {
		return nil, err
	}
	if err := w.warm(); err != nil {
		return nil, err
	}
	rep.lap("set-up and warm-up")

	snap := obs.Default.Snapshot()
	tx0, rx0 := wireBytes(d.nodes)
	closed := runClosed(cfg.clients, share(cfg.seconds, traceClosedShare), w.do)
	tx1, rx1 := wireBytes(d.nodes)
	diff := obs.Default.Snapshot().Diff(snap)
	open := runOpen(cfg.seed, cfg.workload, cfg.clients, cfg.sc.OpenRate[cfg.workload], share(cfg.seconds, traceOpenShare), w.do)
	if err := checkLate(open); err != nil {
		return nil, err
	}
	rep.loadLayers(closed, open, diff)
	// On this workload the transport figures are means over the closed
	// loop's mix, cache hits included.
	ops := float64(closed.Attempted - closed.Failed)
	rep.set("transport.bytes_out_per_op", ratio(float64(tx1-tx0), ops))
	rep.set("transport.bytes_in_per_op", ratio(float64(rx1-rx0), ops))
	rep.set("transport.frames_per_op", ratio(float64(diff.Counters["transport.frames_out"]+diff.Counters["transport.frames_in"]), ops))

	single := runClosed(1, share(cfg.seconds, traceSingleShare), func(int) (opKind, bool) { return w.do(0) })
	rep.count(single)

	traced, err := w.tracedPhase(tr, rec, rep)
	if err != nil {
		return nil, err
	}
	rep.count(traced)
	rep.traceOverhead(tr, "frontend.dynserving.search", single)
	rep.lap("load")

	recall, _, err := w.quality()
	if err != nil {
		return nil, err
	}
	rep.set("recall_at_10", recall)
	checked, bad, err := w.verify(seeds)
	if err != nil {
		return nil, err
	}
	rep.attempted += checked
	rep.failed += bad
	rep.notef("quiesced: %d searches, subscriptions and replica-lag checks, %d failed", checked, bad)
	rep.lap("quality and verify")
	return rep, rep.finishLayers(cfg, tr)
}

// dynStats sums the dynamic clients' kick and round counters over shards.
func (w *dynWorld) dynStats() (st core.DynStats) {
	for _, sh := range w.d.shards {
		s := sh.Client.Stats()
		st.Kicks += s.Kicks
		st.Rounds += s.Rounds
	}
	return st
}

// tracedPhase is the single-client traced phase of dyn-churn.
func (w *dynWorld) tracedPhase(tr *tracer, rec *nodeRecorder, rep *report) (phaseStats, error) {
	d := w.d
	hits := obs.Default.Counter("frontend.cache_hits")
	evalNs := func() int64 { return obs.Default.Snapshot().Histograms["subs.eval"].Sum }
	var (
		replayErr             error
		searches, misses      int
		inserts, updates      int
		profiles              int
		overheadUs, updateUs  float64
		writeUs, updateSelfUs float64
		evalUs                float64
		rounds, kicks         int
	)
	fail := func(kind opKind, format string, args ...any) (opKind, bool) {
		if replayErr == nil {
			replayErr = fmt.Errorf(format, args...)
		}
		return kind, false
	}
	st := runClosed(1, share(w.cfg.seconds, traceTracedShare), func(int) (opKind, bool) {
		op := w.gens[0].next()
		id := tr.op()
		if op.Kind != opDiscover {
			name := "frontend.dynserving.delete"
			if op.Kind == opInsert {
				name = "frontend.dynserving.insert"
				inserts++
			}
			eval0, stats0 := evalNs(), w.dynStats()
			real := tr.begin(id, 0, name)
			*rec = nodeRecorder{tr: tr, op: id, parent: real, armed: true}
			err := w.apply(op)
			rec.armed = false
			tr.end(real)
			if err != nil {
				return fail(op.Kind, "traced update of %d: %v", op.ID, err)
			}
			updates++
			eval := float64(evalNs()-eval0) / 1e3
			stats1 := w.dynStats()
			rounds += stats1.Rounds - stats0.Rounds
			kicks += stats1.Kicks - stats0.Kicks
			self := float64(tr.spans[real-1].dur()) / 1e3
			updateUs += self
			evalUs += eval
			for _, s := range tr.spans[real:] {
				self -= float64(s.dur()) / 1e3
				if s.Name == "replica.store_buckets" || s.Name == "replica.put_profiles" || s.Name == "replica.delete_profile" {
					writeUs += float64(s.dur()) / 1e3
				}
			}
			updateSelfUs += self - eval
			return op.Kind, true
		}

		profile := w.ds.Profiles[op.Target]
		hits0 := hits.Load()
		real := tr.begin(id, 0, "frontend.dynserving.search")
		matches, partial, err := d.serving.Search(profile, topK, op.ID)
		tr.end(real)
		if err != nil || partial {
			return fail(opDiscover, "traced search for %d: partial=%v err=%v", op.ID, partial, err)
		}
		miss := hits.Load() == hits0
		if miss {
			tr.label(real, "miss")
		} else {
			tr.label(real, "hit")
		}

		stats0 := w.dynStats()
		root := tr.begin(id, 0, "replay")
		sp := tr.begin(id, root, "lsh.hash")
		meta := d.sf.ComputeMeta(profile)
		tr.end(sp)
		var ids []uint64
		var cts [][]byte
		for s, sh := range d.shards {
			sp = tr.begin(id, root, "core.dyn.search")
			sids, err := sh.Client.Search(d.groups[s], meta)
			tr.end(sp)
			if err != nil {
				return fail(opDiscover, "replayed search on shard %d: %v", s, err)
			}
			sp = tr.begin(id, root, "shard.fetch_profiles")
			scts, err := d.groups[s].FetchProfiles(sids)
			tr.end(sp)
			if err != nil {
				return fail(opDiscover, "replayed profile fetch on shard %d: %v", s, err)
			}
			ids = append(ids, sids...)
			cts = append(cts, scts...)
		}
		sp = tr.begin(id, root, "crypt.decrypt")
		vecs := make([][]float64, len(cts))
		for i, ct := range cts {
			if vecs[i], err = d.sf.DecryptProfile(ct); err != nil {
				return fail(opDiscover, "decrypt candidate %d: %v", ids[i], err)
			}
		}
		tr.end(sp)
		sp = tr.begin(id, root, "vec.rank")
		tk := vec.NewTopK(topK)
		for i, v := range vecs {
			if ids[i] != op.ID {
				tk.Offer(ids[i], vec.Distance(profile, v))
			}
		}
		ranked := tk.Sorted()
		tr.end(sp)
		tr.end(root)
		rounds += w.dynStats().Rounds - stats0.Rounds

		replayed := make([]frontend.Match, len(ranked))
		for i, s := range ranked {
			replayed[i] = frontend.Match{ID: s.ID, Distance: s.Score}
		}
		if err := frontend.EqualMatches(replayed, matches); err != nil {
			return fail(opDiscover, "replay of search for %d differs from DynServing.Search: %v", op.ID, err)
		}
		searches++
		profiles += len(cts)
		if miss {
			misses++
			overheadUs += float64(tr.spans[real-1].dur()-tr.spans[root-1].dur()) / 1e3
		}
		return opDiscover, true
	})
	if replayErr != nil {
		return st, replayErr
	}
	if searches == 0 || updates == 0 {
		return st, fmt.Errorf("traced phase completed %d searches and %d updates, want both", searches, updates)
	}
	pct, err := stageSum(tr, "replay")
	if err != nil {
		return st, err
	}
	opUs := mean(tr.durationsUs("replay", ""))
	// A replayed search calls every shard, so a stage's share is its time
	// over all shards.
	perOp := func(name string) float64 { return 100 * mean(tr.durationsUs(name, "")) * float64(len(d.shards)) / opUs }
	rep.set("trace.stage_sum_pct", pct)
	rep.set("replay.op_us", opUs)
	rep.set("lsh.hash_us", mean(tr.durationsUs("lsh.hash", "")))
	rep.set("core.dyn.search_pct", perOp("core.dyn.search"))
	rep.set("shard.fetch_profiles_pct", perOp("shard.fetch_profiles"))
	decrypt := mean(tr.durationsUs("crypt.decrypt", ""))
	rep.set("crypt.decrypt_us", decrypt)
	rep.set("crypt.decrypt_us_per_profile", ratio(decrypt*float64(searches), float64(profiles)))
	rep.set("vec.rank_us", mean(tr.durationsUs("vec.rank", "")))
	rep.cacheCosts(tr, "frontend.dynserving.search", overheadUs, misses)
	// Bucket-store round trips of a replayed search or a real update.
	rep.set("core.dyn.rounds_per_op", float64(rounds)/float64(searches+updates))
	rep.set("core.dyn.kicks_per_insert", ratio(float64(kicks), float64(inserts)))
	rep.set("core.dyn.update_self_pct", 100*updateSelfUs/updateUs)
	rep.set("replica.writes_fanout_pct", 100*writeUs/updateUs)
	rep.set("subs.eval_pct", 100*evalUs/updateUs)
	rep.notef("traced phase: %d searches replayed (%d misses), %d updates; stages sum to %.1f%% of the replayed search", searches, misses, updates, pct)
	return st, nil
}
