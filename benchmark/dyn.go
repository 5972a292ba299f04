package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/obs"
)

// dyn-churn: the dynamic scheme under a scripted mix of searches, deletes
// and re-inserts, on 2 replica groups × 2 replicas with standing
// subscriptions attached.

type dynWorld struct {
	cfg     runConfig
	ds      *dataset.Dataset
	uploads []frontend.Upload
	d       *dynDeploy
	gens    []*dynGen // one script per client

	// writeMu orders the harness's mutations. DynServing serializes them
	// under its own churn lock anyway; taking this one first only makes
	// the order they were applied in known, so the subscription oracle can
	// replay it. Latency is measured from before the lock, so queueing
	// behind another writer counts exactly as it would on the churn lock.
	writeMu sync.Mutex
	applied []dynOp
}

func newDynWorld(cfg runConfig) (*dynWorld, error) {
	ds, err := genPopulation(cfg.sc, cfg.seed, cfg.sc.Spare)
	if err != nil {
		return nil, err
	}
	w := &dynWorld{cfg: cfg, ds: ds, uploads: memberUploads(ds.Profiles, cfg.sc.Users)}
	for c := 0; c < cfg.clients; c++ {
		w.gens = append(w.gens, newDynGen(cfg.seed, cfg.sc.Users, cfg.sc.Spare, c, cfg.clients))
	}
	return w, nil
}

func (w *dynWorld) boot() (*dynDeploy, time.Duration, error) {
	return bootDyn(w.cfg.sc.Dim, w.uploads, w.cfg.sc.Subs, w.cfg.keySeed(), nil)
}

// bigK asks a search for every candidate it has.
func (w *dynWorld) bigK() int { return len(w.ds.Profiles) + 1 }

// do performs script owner lane's next operation.
func (w *dynWorld) do(lane int) (opKind, bool) {
	op := w.gens[lane].next()
	return op.Kind, w.apply(op) == nil
}

func (w *dynWorld) apply(op dynOp) error {
	switch op.Kind {
	case opDiscover:
		_, partial, err := w.d.serving.Search(w.ds.Profiles[op.Target], topK, op.ID)
		if err == nil && partial {
			err = fmt.Errorf("partial answer")
		}
		return err
	case opDelete:
		w.writeMu.Lock()
		defer w.writeMu.Unlock()
		if err := w.d.serving.Delete(op.ID, w.ds.Profiles[op.Profile]); err != nil {
			return err
		}
		w.applied = append(w.applied, op)
	case opInsert:
		w.writeMu.Lock()
		defer w.writeMu.Unlock()
		if err := w.d.serving.Insert(op.ID, w.ds.Profiles[op.Profile]); err != nil {
			return err
		}
		w.applied = append(w.applied, op)
	}
	return nil
}

// warm runs the first DynWarm script operations untimed: connection pools
// dial and the result cache reaches the hit ratio the mix sustains.
func (w *dynWorld) warm() error {
	var wg sync.WaitGroup
	failed := make([]int, w.cfg.clients)
	for c := 0; c < w.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < w.cfg.sc.DynWarm/w.cfg.clients; i++ {
				if _, ok := w.do(c); !ok {
					failed[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for _, f := range failed {
		if f > 0 {
			return fmt.Errorf("%d warm-up operations failed", f)
		}
	}
	return nil
}

// seedSets asks the quiet, freshly subscribed deployment for every
// subscription's seed candidates — served from the cache entries the
// registrations just filled — so the subscription oracle starts from the
// same candidates the manager did.
func (w *dynWorld) seedSets() (map[uint64][]uint64, error) {
	seeds := make(map[uint64][]uint64, w.cfg.sc.Subs)
	for i := 0; i < w.cfg.sc.Subs; i++ {
		u := w.uploads[i]
		matches, partial, err := w.d.serving.Search(u.Profile, w.bigK(), 0)
		if err != nil || partial {
			return nil, fmt.Errorf("seed search for subscription %d: partial=%v err=%v", u.ID, partial, err)
		}
		ids := make([]uint64, len(matches))
		for j, m := range matches {
			ids[j] = m.ID
		}
		seeds[u.ID] = ids
	}
	return seeds, nil
}

// liveProfiles is the membership the scripts have left behind: every
// owned id each generator holds live, with the profile it now carries.
func (w *dynWorld) liveProfiles() map[uint64][]float64 {
	live := make(map[uint64][]float64)
	for _, g := range w.gens {
		for _, id := range g.live {
			live[id] = w.ds.Profiles[g.profile[id]]
		}
	}
	return live
}

// verify checks the quiesced deployment: VerifyDyn seeded searches
// slot-exactly against the plaintext oracle (and the searched member
// reachable through its own profile), every subscription's standing top-k
// slot-exactly against the subscription oracle replaying the applied
// mutations, and no replica lagging. It returns how many checks it made
// and how many failed.
func (w *dynWorld) verify(seeds map[uint64][]uint64) (checked, bad int, err error) {
	live := w.liveProfiles()
	oracle := w.d.sf.NewDynOracle(nil)
	ids := make([]uint64, 0, len(live))
	for id, p := range live {
		oracle.PutProfile(id, p)
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	complain := func(format string, args ...any) {
		if bad == 0 {
			fmt.Printf("dyn verify: "+format+"\n", args...)
		}
		bad++
	}

	rng := rand.New(rand.NewSource(subSeed(w.cfg.seed, "dyn-verify", 0)))
	for i := 0; i < w.cfg.sc.VerifyDyn; i++ {
		checked++
		id := ids[rng.Intn(len(ids))]
		p := live[id]
		all, partial, err := w.d.serving.Search(p, w.bigK(), 0)
		if err != nil || partial {
			complain("search for %d: partial=%v err=%v", id, partial, err)
			continue
		}
		cand := make([]uint64, len(all))
		reachable := false
		for j, m := range all {
			cand[j] = m.ID
			reachable = reachable || m.ID == id
		}
		if !reachable {
			complain("live user %d unreachable through its own profile", id)
			continue
		}
		want, err := oracle.RankCandidates(p, cand, topK, id)
		if err != nil {
			complain("search for %d: %v", id, err)
			continue
		}
		got, partial, err := w.d.serving.Search(p, topK, id)
		if err != nil || partial {
			complain("search for %d: partial=%v err=%v", id, partial, err)
			continue
		}
		if err := frontend.EqualMatches(got, want); err != nil {
			complain("search for %d: %v", id, err)
		}
	}

	so, err := w.d.sf.NewSubOracle(w.d.shards, nil)
	if err != nil {
		return checked, bad, err
	}
	for _, u := range w.uploads {
		so.PutProfile(u.ID, u.Profile)
	}
	for i := 0; i < w.cfg.sc.Subs; i++ {
		u := w.uploads[i]
		if _, err := so.Register(u.ID, topK, u.Profile, seeds[u.ID]); err != nil {
			return checked, bad, err
		}
	}
	for _, op := range w.applied {
		if op.Kind == opDelete {
			so.Delete(op.ID)
		} else if _, err := so.Insert(op.ID, w.ds.Profiles[op.Profile]); err != nil {
			return checked, bad, err
		}
	}
	for i := 0; i < w.cfg.sc.Subs; i++ {
		checked++
		id := w.uploads[i].ID
		got, ok1 := w.d.subsm.TopK(id)
		want, ok2 := so.TopK(id)
		if !ok1 || !ok2 || !slices.Equal(got, want) {
			complain("subscription %d standing result %v, oracle %v", id, got, want)
		}
	}

	checked++
	if lag := obs.Default.Gauge("replica.lag").Load(); lag != 0 {
		complain("replica.lag = %d after quiesce", lag)
	}
	return checked, bad, nil
}

// quality scores searches for QualityN seeded live members against brute
// force over the live membership.
func (w *dynWorld) quality() (recall, accuracy float64, err error) {
	live := w.liveProfiles()
	ids := make([]uint64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	// Brute force ranks by slice index; list the live profiles so that
	// index i holds user ids[i] and map the answers' ids to indices.
	profiles := make([][]float64, len(ids))
	index := make(map[uint64]uint64, len(ids))
	for i, id := range ids {
		profiles[i] = live[id]
		index[id] = uint64(i)
	}
	targets := qualityTargets(w.cfg.seed, len(ids), w.cfg.sc.QualityN)
	return quality(profiles, targets, func(t int) ([]frontend.Match, error) {
		m, partial, err := w.d.serving.Search(profiles[t], topK, ids[t])
		if err == nil && partial {
			err = fmt.Errorf("partial answer")
		}
		for i := range m {
			m[i].ID = index[m[i].ID] + 1
		}
		return m, err
	})
}

// runDyn is the untraced run of dyn-churn.
func runDyn(cfg runConfig) (*report, error) {
	rep := newReport()
	w, err := newDynWorld(cfg)
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
	seeds, err := w.seedSets()
	if err != nil {
		return nil, err
	}
	if err := w.warm(); err != nil {
		return nil, err
	}
	rep.lap("warm-up")

	tx0, rx0 := wireBytes(d.nodes)
	closed := runClosed(cfg.clients, share(cfg.seconds, closedShare), w.do)
	tx1, rx1 := wireBytes(d.nodes)
	open := runOpen(cfg.seed, cfg.workload, cfg.clients, cfg.sc.OpenRate[cfg.workload], share(cfg.seconds, 1-closedShare), w.do)
	if err := rep.loadPhases(closed, open, float64(tx1-tx0+rx1-rx0)); err != nil {
		return nil, err
	}
	rep.lap("load")
	rep.notef("closed loop updates: %d samples, p50 %.3f ms, p99 %.3f ms", len(closed.Lat[opDelete])+len(closed.Lat[opInsert]), closed.updateLatency(0.5), closed.updateLatency(0.99))

	_, accuracy, err := w.quality()
	if err != nil {
		return nil, err
	}
	rep.set("accuracy_ratio", accuracy)
	rep.set("index_bytes_per_user", float64(d.cloudBytes)/float64(cfg.sc.Users))
	rep.lap("quality")

	checked, bad, err := w.verify(seeds)
	if err != nil {
		return nil, err
	}
	rep.lap("verify")
	rep.attempted += checked
	rep.failed += bad
	rep.notef("quiesced: %d searches, subscriptions and replica-lag checks, %d failed; %d mutations applied, %d notifications", checked, bad, len(w.applied), d.notifications)
	return rep, nil
}
