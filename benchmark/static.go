package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pisd/internal/baseline"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/vec"
)

// static-sweep and static-zipf: one deployment, one configuration, one
// code path; only the order targets arrive in differs. Each operation is a
// member's Serving.Discover of their own profile, excluding themselves.

// answer is one recorded discovery, checked against the oracle after the
// timed phases so that the check costs the measurement nothing.
type answer struct {
	target  int32
	matches []frontend.Match
}

type staticWorld struct {
	cfg      runConfig
	ds       *dataset.Dataset
	uploads  []frontend.Upload
	d        *staticDeploy
	sweep    *sweepGen
	recorded [][]answer // every phase's answers, one log per lane
}

func newStaticWorld(cfg runConfig) (*staticWorld, error) {
	ds, err := genPopulation(cfg.sc, cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	return &staticWorld{
		cfg:     cfg,
		ds:      ds,
		uploads: memberUploads(ds.Profiles, cfg.sc.Users),
		sweep:   newSweepGen(cfg.seed, cfg.sc.Users),
	}, nil
}

func (w *staticWorld) boot() (*staticDeploy, time.Duration, error) {
	return bootStatic(w.cfg.sc.Dim, w.uploads, w.cfg.keySeed())
}

// targets returns lane's target generator for one phase.
func (w *staticWorld) targets(phase string, lane int) targetGen {
	if w.cfg.workload == "static-zipf" {
		return newZipfGen(w.cfg.seed, w.cfg.sc.Users, phase, lane)
	}
	return w.sweep
}

// record opens the answer logs of the next phase, one per lane, for the
// oracle check. Phases run one after another, so a phase has stopped
// writing to its logs before the next call extends the list.
func (w *staticWorld) record(lanes int) [][]answer {
	w.recorded = append(w.recorded, make([][]answer, lanes)...)
	return w.recorded[len(w.recorded)-lanes:]
}

// discoverOp returns the operation function of one phase with lanes
// lanes.
func (w *staticWorld) discoverOp(phase string, lanes int) opFunc {
	gens := make([]targetGen, lanes)
	for l := range gens {
		gens[l] = w.targets(phase, l)
	}
	answers := w.record(lanes)
	return func(lane int) (opKind, bool) {
		t := gens[lane].next()
		matches, partial, err := w.d.serving.Discover(context.Background(), w.ds.Profiles[t], topK, uint64(t+1))
		if err != nil || partial {
			return opDiscover, false
		}
		answers[lane] = append(answers[lane], answer{int32(t), matches})
		return opDiscover, true
	}
}

// warm dials the connection pools and fills the result cache before
// anything is timed: a full cache holds about a gigabyte of decrypted
// candidates, and while it fills the heap grows and the collector runs
// ever less often. An LRU cache under Zipf draws fills slowly — unpopular
// members arrive rarely — and throughput keeps climbing until it has; so
// on static-zipf the cache is filled outright with the members it would
// settle on, least popular first, and then run in with ZipfWarm draws. On
// static-sweep it is filled with the sweep's next members, none of which
// recurs before it has been evicted.
func (w *staticWorld) warm() error {
	var order []int
	fill := min(frontend.DefaultServingConfig().CacheEntries, w.cfg.sc.Users)
	if w.cfg.workload == "static-zipf" {
		ranks := zipfRanks(w.cfg.seed, w.cfg.sc.Users)
		for r := fill - 1; r >= 0; r-- {
			order = append(order, ranks[r])
		}
		draws := newZipfGen(w.cfg.seed, w.cfg.sc.Users, "warm", 0)
		for i := 0; i < w.cfg.sc.ZipfWarm; i++ {
			order = append(order, draws.next())
		}
	} else {
		for i := 0; i < fill; i++ {
			order = append(order, w.sweep.next())
		}
	}
	var wg sync.WaitGroup
	failed := make([]int, w.cfg.clients)
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(order); i += w.cfg.clients {
				t := order[i]
				_, partial, err := w.d.serving.Discover(context.Background(), w.ds.Profiles[t], topK, uint64(t+1))
				if err != nil || partial {
					failed[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, f := range failed {
		if f > 0 {
			return fmt.Errorf("%d warm-up discoveries failed", f)
		}
	}
	return nil
}

// verify compares every recorded answer slot-exactly with the plaintext
// oracle and returns the number that differ. Oracle answers are computed
// once per distinct target, on all cores.
func (w *staticWorld) verify() (checked, mismatched int, err error) {
	oracle, err := w.d.sf.BuildOracle(w.uploads)
	if err != nil {
		return 0, 0, fmt.Errorf("build oracle: %w", err)
	}
	seen := make(map[int32]struct{})
	var distinct []int32
	for _, lane := range w.recorded {
		for _, a := range lane {
			if _, ok := seen[a.target]; !ok {
				seen[a.target] = struct{}{}
				distinct = append(distinct, a.target)
			}
		}
	}
	want := make(map[int32][]frontend.Match, len(distinct))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(distinct); i += w.cfg.clients {
				t := distinct[i]
				m := oracle.Discover(w.ds.Profiles[t], topK, uint64(t+1))
				mu.Lock()
				want[t] = m
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, lane := range w.recorded {
		for _, a := range lane {
			checked++
			if err := frontend.EqualMatches(a.matches, want[a.target]); err != nil {
				if mismatched == 0 {
					fmt.Printf("oracle mismatch on target %d: %v\n", a.target, err)
				}
				mismatched++
			}
		}
	}
	return checked, mismatched, nil
}

// quality compares the secure top-10 of n seeded member targets with the
// exact nearest neighbours and returns the mean recall@10 and the paper's
// mean accuracy ratio. discover answers one target.
func quality(profiles [][]float64, targets []int, discover func(t int) ([]frontend.Match, error)) (recall, accuracy float64, err error) {
	for _, t := range targets {
		got, err := discover(t)
		if err != nil {
			return 0, 0, fmt.Errorf("quality target %d: %w", t, err)
		}
		truth := dropSelf(baseline.BruteForceTopK(profiles, profiles[t], topK+1), t)
		r, a := scoreAgainst(truth, got)
		recall += r
		accuracy += a
	}
	n := float64(len(targets))
	return recall / n, accuracy / n, nil
}

// dropSelf removes index self from a brute-force ranking and cuts it to
// topK.
func dropSelf(ranked []vec.Scored, self int) []vec.Scored {
	out := ranked[:0:0]
	for _, s := range ranked {
		if int(s.ID) != self && len(out) < topK {
			out = append(out, s)
		}
	}
	return out
}

// scoreAgainst scores secure matches (user ids) against a ground truth of
// profile indices (id-1).
func scoreAgainst(truth []vec.Scored, got []frontend.Match) (recall, accuracy float64) {
	retrieved := make([]vec.Scored, len(got))
	for i, m := range got {
		retrieved[i] = vec.Scored{ID: m.ID - 1, Score: m.Distance}
	}
	return baseline.RecallAtK(truth, retrieved), baseline.AccuracyRatio(truth, retrieved)
}

func (w *staticWorld) quality() (recall, accuracy float64, err error) {
	members := w.ds.Profiles[:w.cfg.sc.Users]
	targets := qualityTargets(w.cfg.seed, w.cfg.sc.Users, w.cfg.sc.QualityN)
	return quality(members, targets, func(t int) ([]frontend.Match, error) {
		m, partial, err := w.d.serving.Discover(context.Background(), members[t], topK, uint64(t+1))
		if err == nil && partial {
			err = fmt.Errorf("partial answer")
		}
		return m, err
	})
}

// runStatic is the untraced run: every end-to-end metric of a static
// workload.
func runStatic(cfg runConfig) (*report, error) {
	rep := newReport()
	w, err := newStaticWorld(cfg)
	if err != nil {
		return nil, err
	}
	rep.lap("generate")
	if err := rep.usrPhase(cfg, nil); err != nil {
		return nil, err
	}
	rep.lap("usr")
	d, setup, err := bootRepeated(cfg.sc.SetupReps, w.boot)
	if err != nil {
		return nil, err
	}
	w.d = d
	defer d.close()
	rep.set("setup_s", setup)
	rep.lap("set-up")
	if err := w.warm(); err != nil {
		return nil, err
	}
	rep.lap("warm-up")

	tx0, rx0 := wireBytes(d.nodes)
	closed := runClosed(cfg.clients, share(cfg.seconds, closedShare), w.discoverOp("closed", cfg.clients))
	tx1, rx1 := wireBytes(d.nodes)
	lanes := openLanes(cfg.sc, cfg.workload, cfg.clients)
	open := runOpen(cfg.seed, cfg.workload, lanes, cfg.sc.OpenRate[cfg.workload], share(cfg.seconds, 1-closedShare), w.discoverOp("open", lanes))
	if err := rep.loadPhases(closed, open, float64(tx1-tx0+rx1-rx0)); err != nil {
		return nil, err
	}
	rep.lap("load")

	_, accuracy, err := w.quality()
	if err != nil {
		return nil, err
	}
	rep.set("accuracy_ratio", accuracy)
	rep.set("index_bytes_per_user", float64(d.cloudBytes)/float64(cfg.sc.Users))
	rep.lap("quality")

	checked, mismatched, err := w.verify()
	if err != nil {
		return nil, err
	}
	rep.lap("verify")
	rep.failed += mismatched
	rep.notef("oracle: %d answers checked slot-exactly, %d differ", checked, mismatched)
	return rep, nil
}
