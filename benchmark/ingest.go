package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/segstore"
	"pisd/internal/shard"
	"pisd/internal/vec"
)

// ingest-build: the build side. The population is streamed by
// dataset.Iterator in chunks through SegmentBuilder into an on-disk
// segment store, the store is attached to a cloud server, and members'
// self-discoveries are then served from the segments over TCP.

// ingestDeploy is one finished streaming build, attached and serving.
type ingestDeploy struct {
	sf      *frontend.Frontend
	node    *cloudNode
	store   *segstore.Store
	pool    *shard.Pool
	serving *frontend.Serving
	dir     string

	// targets are the members kept as discovery targets: every stride-th
	// user of the stream, with ids[i] carrying targets[i].
	targets [][]float64
	ids     []uint64

	build      buildStats
	cloudBytes int64
}

// buildStats is what one streaming build measured, generation excluded.
type buildStats struct {
	Adds      []timedCall // one per AddUploads call, a chunk each
	Finish    timedCall
	Kicks     int
	StashUsed int
}

// timedCall is the wall and process CPU time of one call into the builder.
type timedCall struct {
	Wall, CPU time.Duration
}

// addWall is the time the build spent in AddUploads.
func (b buildStats) addWall() (sum time.Duration) {
	for _, a := range b.Adds {
		sum += a.Wall
	}
	return sum
}

func (d *ingestDeploy) close() {
	if d.node != nil {
		d.node.stop()
	}
	if d.store != nil {
		d.store.Close()
	}
	os.RemoveAll(d.dir)
}

func ingestIterator(sc scale, seed int64) (*dataset.Iterator, error) {
	return dataset.NewIterator(dataset.Config{
		Users: sc.IngestUsers, Dim: sc.IngestDim, Topics: dataset.AutoTopics(sc.IngestUsers),
		TopicsPerUser: 2, ActiveWords: max(4, sc.IngestDim/12), Noise: 0.02, PersonalWeight: 0.6,
		Seed: subSeed(seed, "ingest-population", 0),
	})
}

// bootIngest streams the population into a fresh segment directory and
// brings it to serving. The returned duration is uploads in hand →
// serving: everything but the generation of the chunks.
func bootIngest(cfg runConfig, tr *tracer) (*ingestDeploy, time.Duration, error) {
	sc := cfg.sc
	it, err := ingestIterator(sc, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "segments-")
	if err != nil {
		return nil, 0, err
	}
	d := &ingestDeploy{dir: dir}
	fail := func(err error) (*ingestDeploy, time.Duration, error) {
		d.close()
		return nil, 0, err
	}
	var took time.Duration
	timed := func(f func() error) error {
		t0 := time.Now()
		err := f()
		took += time.Since(t0)
		return err
	}

	var sb *frontend.SegmentBuilder
	err = timed(func() error {
		fcfg := frontend.ConfigForPopulation(sc.IngestDim, sc.IngestUsers)
		fcfg.KeySeed = cfg.keySeed()
		if d.sf, err = frontend.New(fcfg); err != nil {
			return err
		}
		if d.node, err = startNode(); err != nil {
			return err
		}
		sb, err = d.sf.NewSegmentBuilder(sc.IngestUsers, dir)
		return err
	})
	if err != nil {
		return fail(err)
	}

	stride := max(1, sc.IngestUsers/sc.IngestTargets)
	op := tr.op()
	root := tr.begin(op, 0, "ingest.build")
	for {
		chunk, ok := it.NextChunk(sc.IngestChunk)
		if !ok {
			break
		}
		uploads := make([]frontend.Upload, len(chunk.Profiles))
		for i, p := range chunk.Profiles {
			uploads[i] = frontend.Upload{ID: uint64(chunk.Start + i + 1), Profile: p}
			if (chunk.Start+i)%stride == 0 {
				d.targets = append(d.targets, p)
				d.ids = append(d.ids, uploads[i].ID)
			}
		}
		err = timed(func() error {
			cpu0, t0 := processCPU(), time.Now()
			sp := tr.begin(op, root, "frontend.segbuild.add")
			cts, err := sb.AddUploads(uploads)
			tr.end(sp)
			d.build.Adds = append(d.build.Adds, timedCall{time.Since(t0), processCPU() - cpu0})
			if err != nil {
				return err
			}
			// The batch's {S*} goes to the cloud as it is produced; the
			// plaintext chunk is garbage after this iteration.
			for i, ct := range cts {
				d.node.cs.PutProfile(uploads[i].ID, ct)
				d.cloudBytes += int64(len(ct))
			}
			return nil
		})
		if err != nil {
			return fail(err)
		}
	}
	err = timed(func() error {
		cpu0, t0 := processCPU(), time.Now()
		sp := tr.begin(op, root, "segstore.finish")
		_, err := sb.Finish()
		tr.end(sp)
		d.build.Finish = timedCall{time.Since(t0), processCPU() - cpu0}
		if err != nil {
			return err
		}
		st := sb.Placement().Stats()
		d.build.Kicks, d.build.StashUsed = st.Kicks, st.StashHits

		if d.store, err = segstore.Open(dir); err != nil {
			return err
		}
		d.node.cs.SetSegmentStore(d.store)
		d.cloudBytes += d.store.Bytes()
		if d.pool, err = shard.NewPool(shard.DefaultConfig(), d.node.remote); err != nil {
			return err
		}
		d.serving, err = d.sf.NewServing(d.pool, frontend.DefaultServingConfig())
		return err
	})
	tr.end(root)
	if err != nil {
		return fail(err)
	}
	return d, took, nil
}

// selfFirst reports whether id leads matches at distance 0, allowing for
// other members tied with it there.
func selfFirst(matches []frontend.Match, id uint64) bool {
	for _, m := range matches {
		if m.Distance != 0 {
			return false
		}
		if m.ID == id {
			return true
		}
	}
	return false
}

// discoverOp sweeps the kept targets: each operation is one member's
// discovery of its own profile, which must come back first at distance 0.
func (d *ingestDeploy) discoverOp(sweep *sweepGen) opFunc {
	return func(int) (opKind, bool) {
		t := sweep.next()
		matches, partial, err := d.serving.Discover(context.Background(), d.targets[t], topK, 0)
		return opDiscover, err == nil && !partial && selfFirst(matches, d.ids[t])
	}
}

// quality re-streams the population to rank it exactly against the first
// QualityN kept targets, never holding more than a chunk, and scores the
// served answers against that.
func (d *ingestDeploy) quality(cfg runConfig) (recall, accuracy float64, err error) {
	n := min(cfg.sc.QualityN, len(d.targets))
	truth := make([]*vec.TopK, n)
	for q := range truth {
		truth[q] = vec.NewTopK(topK + 1)
	}
	it, err := ingestIterator(cfg.sc, cfg.seed)
	if err != nil {
		return 0, 0, err
	}
	for {
		chunk, ok := it.NextChunk(cfg.sc.IngestChunk)
		if !ok {
			break
		}
		var wg sync.WaitGroup
		for c := 0; c < cfg.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for q := c; q < n; q += cfg.clients {
					for i, p := range chunk.Profiles {
						truth[q].Offer(uint64(chunk.Start+i), vec.Distance(d.targets[q], p))
					}
				}
			}(c)
		}
		wg.Wait()
	}
	for q := 0; q < n; q++ {
		got, partial, err := d.serving.Discover(context.Background(), d.targets[q], topK, d.ids[q])
		if err != nil || partial {
			return 0, 0, fmt.Errorf("quality target %d: partial=%v err=%v", d.ids[q], partial, err)
		}
		r, a := scoreAgainst(dropSelf(truth[q].Sorted(), int(d.ids[q]-1)), got)
		recall += r
		accuracy += a
	}
	return recall / float64(n), accuracy / float64(n), nil
}

// runIngest is the untraced run of ingest-build.
func runIngest(cfg runConfig) (*report, error) {
	rep := newReport()
	if err := rep.usrPhase(cfg, nil); err != nil {
		return nil, err
	}
	rep.lap("usr")
	var builds []buildStats
	d, setup, err := bootRepeated(cfg.sc.SetupReps, func() (*ingestDeploy, time.Duration, error) {
		d, took, err := bootIngest(cfg, nil)
		if err == nil {
			builds = append(builds, d.build)
		}
		return d, took, err
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	rep.set("setup_s", setup)
	rep.lap("set-up")

	sweep := newSweepGen(cfg.seed, len(d.targets))
	op := d.discoverOp(sweep)
	for i := 0; i < 4*connsPerShard; i++ {
		if _, ok := op(0); !ok {
			return nil, fmt.Errorf("warm-up discovery failed")
		}
	}
	tx0, rx0 := wireBytes([]*cloudNode{d.node})
	closed := runClosed(cfg.clients, share(cfg.seconds, closedShare), op)
	tx1, rx1 := wireBytes([]*cloudNode{d.node})
	open := runOpen(cfg.seed, cfg.workload, cfg.sc.OpenLanes, cfg.sc.OpenRate[cfg.workload], share(cfg.seconds, 1-closedShare), op)
	if err := rep.loadPhases(closed, open, float64(tx1-tx0+rx1-rx0)); err != nil {
		return nil, err
	}
	rep.lap("load")

	// On this workload an operation is a user built, so throughput and
	// CPU are the build's. Every AddUploads call and every Finish of the
	// repeated builds is a window in the sense of load.go: a build is
	// costed at its number of chunks times the lower-quartile call, plus
	// the lower-quartile Finish.
	users := float64(cfg.sc.IngestUsers)
	var addWall, addCPU, finWall, finCPU []float64
	for _, b := range builds {
		for _, a := range b.Adds {
			addWall = append(addWall, a.Wall.Seconds())
			addCPU = append(addCPU, ms(a.CPU))
		}
		finWall = append(finWall, b.Finish.Wall.Seconds())
		finCPU = append(finCPU, ms(b.Finish.CPU))
	}
	chunks := float64(len(d.build.Adds))
	rep.set("ops_per_s", users/(chunks*percentile(addWall, goodTime)+percentile(finWall, goodTime)))
	rep.set("cpu_ms_per_op", (chunks*percentile(addCPU, goodTime)+percentile(finCPU, goodTime))/users)
	rep.attempted += len(builds) * cfg.sc.IngestUsers
	rep.notef("build: %d users x %d builds, %d segments, %d kicks, %d stashed", cfg.sc.IngestUsers, len(builds), len(d.store.Segments()), d.build.Kicks, d.build.StashUsed)

	_, accuracy, err := d.quality(cfg)
	if err != nil {
		return nil, err
	}
	rep.set("accuracy_ratio", accuracy)
	rep.set("index_bytes_per_user", float64(d.cloudBytes)/users)
	rep.lap("quality")
	return rep, nil
}

// traceIngest is the traced run of ingest-build: the Usr-tier stages and
// one build with a span per AddUploads and Finish, then the same staged
// replay of a discovery as the static workloads, here answered from
// segments (the direct cloud probe is the segment store's SecRec).
func traceIngest(cfg runConfig) (*report, error) {
	rep := newReport()
	tr := newTracer()
	if err := rep.usrPhase(cfg, tr); err != nil {
		return nil, err
	}
	rep.lap("usr")
	d, _, err := bootIngest(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	rep.lap("set-up")
	users := float64(cfg.sc.IngestUsers)
	rep.attempted += cfg.sc.IngestUsers
	rep.set("segstore.finish_pct", 100*d.build.Finish.Wall.Seconds()/(d.build.addWall()+d.build.Finish.Wall).Seconds())
	rep.set("segstore.segments", float64(len(d.store.Segments())))
	rep.set("segstore.bytes_per_user", float64(d.store.Bytes())/users)
	rep.set("cuckoo.kicks_per_user", float64(d.build.Kicks)/users)
	rep.set("cuckoo.stash_used", float64(d.build.StashUsed))

	sweep := newSweepGen(cfg.seed, len(d.targets))
	op := d.discoverOp(sweep)
	snap := obs.Default.Snapshot()
	closed := runClosed(cfg.clients, share(cfg.seconds, traceClosedShare), op)
	diff := obs.Default.Snapshot().Diff(snap)
	open := runOpen(cfg.seed, cfg.workload, cfg.sc.OpenLanes, cfg.sc.OpenRate[cfg.workload], share(cfg.seconds, traceOpenShare), op)
	if err := checkLate(open); err != nil {
		return nil, err
	}
	rep.loadLayers(closed, open, diff)
	single := runClosed(1, share(cfg.seconds, traceSingleShare), op)
	rep.count(single)

	stack := discoverStack{sf: d.sf, pool: d.pool, serving: d.serving, nodes: []*cloudNode{d.node}}
	traced, err := tracedDiscoveries(cfg, tr, rep, stack, func() (int, []float64, uint64, uint64) {
		t := sweep.next()
		return t, d.targets[t], d.ids[t], 0
	}, func(t int, matches []frontend.Match) bool {
		return selfFirst(matches, d.ids[t])
	})
	if err != nil {
		return nil, err
	}
	rep.count(traced)
	rep.traceOverhead(tr, "frontend.serving.discover", single)
	rep.lap("load")

	recall, _, err := d.quality(cfg)
	if err != nil {
		return nil, err
	}
	rep.set("recall_at_10", recall)
	rep.lap("quality")
	return rep, rep.finishLayers(cfg, tr)
}
