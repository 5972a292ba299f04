package pisd_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"pisd"
	"pisd/internal/core"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/transport"
)

// The paper's access-pattern guarantee, checked end to end through the
// observability counters: every SecRec query unmasks exactly the fixed
// l·(d+1)+stash bucket budget, regardless of the target profile or how
// many users actually match. The cloud's own leakage_invariant_violations
// counter must stay at zero, and the per-query delta of
// cloud.buckets_unmasked must be constant across queries. The tests run
// under -race in CI, so they double as a concurrency check on the
// counters along the Discover path.

func leakageFixture(t *testing.T, keySeed string) (*pisd.Frontend, *dataset.Dataset, []pisd.Upload) {
	t.Helper()
	const (
		nUsers = 150
		dim    = 100
	)
	ds, err := dataset.Generate(dataset.Config{
		Users: nUsers, Dim: dim, Topics: 10, TopicsPerUser: 2,
		ActiveWords: 15, Noise: 0.02, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisd.DefaultFrontendConfig(dim)
	cfg.KeySeed = keySeed
	sf, err := pisd.NewFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]pisd.Upload, nUsers)
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	return sf, ds, uploads
}

func counters(reg *obs.Registry) map[string]int64 {
	return reg.Snapshot().Counters
}

// TestLeakageInvariantStatic pins the single-server case: each Discover
// unmasks exactly BucketsPerQuery() buckets, for targets with very
// different match densities, and DiscoverBatch costs exactly q times that.
func TestLeakageInvariantStatic(t *testing.T) {
	sf, ds, uploads := leakageFixture(t, "leakage-static")
	idx, encProfiles, err := sf.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	cs := pisd.NewCloud()
	reg := obs.NewRegistry()
	cs.SetRegistry(reg)
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	p, err := sf.IndexParams()
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(p.BucketsPerQuery())
	if budget <= 0 {
		t.Fatalf("bucket budget = %d", budget)
	}

	// Targets from different corners of the population: match counts vary,
	// unmasked bucket counts must not.
	targets := []uint64{1, 40, 77, 150}
	for _, id := range targets {
		before := counters(reg)
		matches, err := sf.Discover(cs, ds.Profiles[id-1], 5, id)
		if err != nil {
			t.Fatal(err)
		}
		after := counters(reg)
		unmasked := after["cloud.buckets_unmasked"] - before["cloud.buckets_unmasked"]
		if unmasked != budget {
			t.Errorf("target %d (%d matches): unmasked %d buckets, want the fixed budget %d",
				id, len(matches), unmasked, budget)
		}
		if q := after["cloud.queries"] - before["cloud.queries"]; q != 1 {
			t.Errorf("target %d: cloud.queries advanced by %d, want 1", id, q)
		}
	}

	// Batched discovery: one SecRecBatch call, exactly q·budget buckets.
	profiles := [][]float64{ds.Profiles[0], ds.Profiles[59], ds.Profiles[119]}
	excludes := []uint64{1, 60, 120}
	before := counters(reg)
	if _, err := sf.DiscoverBatch(cs, profiles, 5, excludes); err != nil {
		t.Fatal(err)
	}
	after := counters(reg)
	if unmasked := after["cloud.buckets_unmasked"] - before["cloud.buckets_unmasked"]; unmasked != 3*budget {
		t.Errorf("batch of 3: unmasked %d buckets, want %d", unmasked, 3*budget)
	}
	if q := after["cloud.queries"] - before["cloud.queries"]; q != 3 {
		t.Errorf("batch of 3: cloud.queries advanced by %d, want 3", q)
	}

	if v := after["cloud.leakage_invariant_violations"]; v != 0 {
		t.Errorf("cloud.leakage_invariant_violations = %d, want 0", v)
	}
}

// TestLeakageInvariantTuned pins the invariant under the autotuner's
// population-tiered operating point: swapping the default (l, atoms, W, d)
// for the tuned parameters changes the SIZE of the fixed bucket budget —
// l·(d+1)+stash evaluated at the tuned l and d — but not its constancy.
// Every discovery still unmasks exactly that budget regardless of the
// target, which is the leakage argument (DESIGN.md §16) for shipping tuned
// parameters at all.
func TestLeakageInvariantTuned(t *testing.T) {
	const (
		nUsers = 150
		dim    = 100
	)
	ds, err := dataset.Generate(dataset.Config{
		Users: nUsers, Dim: dim, Topics: 10, TopicsPerUser: 2,
		ActiveWords: 15, Noise: 0.02, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisd.FrontendConfigForPopulation(dim, nUsers)
	cfg.KeySeed = "leakage-tuned"
	if def := pisd.DefaultFrontendConfig(dim); cfg.LSH == def.LSH && cfg.ProbeRange == def.ProbeRange {
		t.Fatal("tuned config equals the default — the tuned tier is not being exercised")
	}
	sf, err := pisd.NewFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]pisd.Upload, nUsers)
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	idx, encProfiles, err := sf.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	cs := pisd.NewCloud()
	reg := obs.NewRegistry()
	cs.SetRegistry(reg)
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	p, err := sf.IndexParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.Tables != cfg.LSH.Tables || p.ProbeRange != cfg.ProbeRange {
		t.Fatalf("index params l=%d d=%d do not reflect the tuned config l=%d d=%d",
			p.Tables, p.ProbeRange, cfg.LSH.Tables, cfg.ProbeRange)
	}
	budget := int64(p.BucketsPerQuery())
	if budget <= 0 {
		t.Fatalf("bucket budget = %d", budget)
	}

	for _, id := range []uint64{1, 40, 77, 150} {
		before := counters(reg)
		matches, err := sf.Discover(cs, ds.Profiles[id-1], 5, id)
		if err != nil {
			t.Fatal(err)
		}
		after := counters(reg)
		unmasked := after["cloud.buckets_unmasked"] - before["cloud.buckets_unmasked"]
		if unmasked != budget {
			t.Errorf("target %d (%d matches): unmasked %d buckets, want the fixed tuned budget %d",
				id, len(matches), unmasked, budget)
		}
	}
	if v := counters(reg)["cloud.leakage_invariant_violations"]; v != 0 {
		t.Errorf("cloud.leakage_invariant_violations = %d, want 0", v)
	}
}

// TestLeakageInvariantSharded pins the fan-out case: every shard answers
// every query against its own projected index, so per fan-out each shard
// unmasks exactly its own index's bucket budget — no shard's access
// pattern depends on which shard holds the matching users.
func TestLeakageInvariantSharded(t *testing.T) {
	sf, ds, uploads := leakageFixture(t, "leakage-sharded")
	const nShards = 3
	shards, err := sf.BuildShardedIndex(uploads, nShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]*obs.Registry, nShards)
	nodes := make([]pisd.ShardNode, nShards)
	for s, sh := range shards {
		cs := pisd.NewCloud()
		regs[s] = obs.NewRegistry()
		cs.SetRegistry(regs[s])
		cs.SetIndex(sh.Index)
		cs.PutProfiles(sh.EncProfiles)
		nodes[s] = pisd.NewLocalShard(cs)
	}
	pool, err := pisd.NewShardPool(pisd.DefaultShardPoolConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []uint64{3, 88, 149} {
		before := make([]map[string]int64, nShards)
		for s := range regs {
			before[s] = counters(regs[s])
		}
		_, partial, err := sf.DiscoverSharded(context.Background(), pool, ds.Profiles[id-1], 5, id)
		if err != nil {
			t.Fatal(err)
		}
		if partial {
			t.Fatal("local fan-out reported partial results")
		}
		for s := range regs {
			after := counters(regs[s])
			budget := int64(shards[s].Index.Params().BucketsPerQuery())
			if unmasked := after["cloud.buckets_unmasked"] - before[s]["cloud.buckets_unmasked"]; unmasked != budget {
				t.Errorf("target %d shard %d: unmasked %d buckets, want %d", id, s, unmasked, budget)
			}
			if q := after["cloud.queries"] - before[s]["cloud.queries"]; q != 1 {
				t.Errorf("target %d shard %d: cloud.queries advanced by %d, want 1", id, s, q)
			}
			if v := after["cloud.leakage_invariant_violations"]; v != 0 {
				t.Errorf("shard %d: leakage_invariant_violations = %d, want 0", s, v)
			}
		}
	}
}

// TestLeakageInvariantDynamic pins the dynamic scheme's weaker but still
// data-independent profile: a search fetches at most l·(d+1) buckets (the
// client dedups PRF position collisions before fetching), and the fetched
// count is a pure function of the target's metadata — repeating a search
// fetches exactly the same number again.
func TestLeakageInvariantDynamic(t *testing.T) {
	sf, ds, uploads := leakageFixture(t, "leakage-dynamic")
	dynIdx, dynClient, dynProfiles, err := sf.BuildDynamicIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}
	cs := pisd.NewCloud()
	reg := obs.NewRegistry()
	cs.SetRegistry(reg)
	cs.SetDynIndex(dynIdx)
	cs.PutProfiles(dynProfiles)

	p, err := sf.IndexParams()
	if err != nil {
		t.Fatal(err)
	}
	maxRefs := int64(p.Tables * (p.ProbeRange + 1))

	for _, id := range []uint64{5, 111} {
		fetched := make([]int64, 2)
		for round := range fetched {
			before := counters(reg)
			if _, err := sf.DynSearch(dynClient, cs, cs, ds.Profiles[id-1], 5, id); err != nil {
				t.Fatal(err)
			}
			after := counters(reg)
			fetched[round] = after["cloud.dyn_buckets_fetched"] - before["cloud.dyn_buckets_fetched"]
			if fetched[round] <= 0 || fetched[round] > maxRefs {
				t.Errorf("target %d round %d: fetched %d buckets, want in (0, %d]",
					id, round, fetched[round], maxRefs)
			}
		}
		if fetched[0] != fetched[1] {
			t.Errorf("target %d: fetch count not deterministic: %d then %d", id, fetched[0], fetched[1])
		}
	}
}

// TestLeakageInvariantServingCache pins DESIGN.md §15's claim for the
// cached serving path: a result-cache hit is a strict subtraction from
// the observable transcript. The first discovery of a search pattern
// pays exactly the fixed per-shard bucket budget; repeating the pattern
// is answered entirely inside the trusted frontend — zero additional
// cloud.queries and zero additional cloud.buckets_unmasked on every
// shard — so the cloud's view under caching is a subset of the view
// without it.
func TestLeakageInvariantServingCache(t *testing.T) {
	sf, ds, uploads := leakageFixture(t, "leakage-serving-cache")
	const nShards = 2
	shards, err := sf.BuildShardedIndex(uploads, nShards, nil)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]*obs.Registry, nShards)
	nodes := make([]pisd.ShardNode, nShards)
	for s, sh := range shards {
		cs := pisd.NewCloud()
		regs[s] = obs.NewRegistry()
		cs.SetRegistry(regs[s])
		cs.SetIndex(sh.Index)
		cs.PutProfiles(sh.EncProfiles)
		nodes[s] = pisd.NewLocalShard(cs)
	}
	pool, err := pisd.NewShardPool(pisd.DefaultShardPoolConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}

	// Isolate the frontend's own metrics so cache_hits is attributable.
	freg := obs.NewRegistry()
	frontend.SetRegistry(freg)
	defer frontend.SetRegistry(obs.Default)

	serving, err := sf.NewServing(pool, pisd.ServingConfig{CacheEntries: 32})
	if err != nil {
		t.Fatal(err)
	}

	const target = uint64(42)
	discover := func() {
		t.Helper()
		_, partial, err := serving.Discover(context.Background(), ds.Profiles[target-1], 5, target)
		if err != nil {
			t.Fatal(err)
		}
		if partial {
			t.Fatal("local fan-out reported partial results")
		}
	}

	// Cold query: the full fixed budget on every shard, exactly once.
	before := make([]map[string]int64, nShards)
	for s := range regs {
		before[s] = counters(regs[s])
	}
	discover()
	for s := range regs {
		after := counters(regs[s])
		budget := int64(shards[s].Index.Params().BucketsPerQuery())
		if unmasked := after["cloud.buckets_unmasked"] - before[s]["cloud.buckets_unmasked"]; unmasked != budget {
			t.Errorf("cold query shard %d: unmasked %d buckets, want %d", s, unmasked, budget)
		}
		if q := after["cloud.queries"] - before[s]["cloud.queries"]; q != 1 {
			t.Errorf("cold query shard %d: cloud.queries advanced by %d, want 1", s, q)
		}
	}

	// Repeats of the same search pattern: the cloud sees NOTHING.
	for s := range regs {
		before[s] = counters(regs[s])
	}
	const repeats = 3
	for i := 0; i < repeats; i++ {
		discover()
	}
	for s := range regs {
		after := counters(regs[s])
		if unmasked := after["cloud.buckets_unmasked"] - before[s]["cloud.buckets_unmasked"]; unmasked != 0 {
			t.Errorf("cache hits unmasked %d buckets on shard %d, want 0", unmasked, s)
		}
		if q := after["cloud.queries"] - before[s]["cloud.queries"]; q != 0 {
			t.Errorf("cache hits advanced cloud.queries by %d on shard %d, want 0", q, s)
		}
		if v := after["cloud.leakage_invariant_violations"]; v != 0 {
			t.Errorf("shard %d: leakage_invariant_violations = %d, want 0", s, v)
		}
	}
	fc := counters(freg)
	if got := fc["frontend.cache_hits"]; got != repeats {
		t.Errorf("frontend.cache_hits = %d, want %d", got, repeats)
	}
	if got := fc["frontend.cache_misses"]; got != 1 {
		t.Errorf("frontend.cache_misses = %d, want 1", got)
	}
}

// downReplica wraps a replica node with a kill switch: while down, every
// read fails at the wire with a connection error WITHOUT reaching the
// underlying cloud, so the replica's own counters prove it saw nothing.
type downReplica struct {
	pisd.ReplicaNode
	mu   sync.Mutex
	down bool
}

func (d *downReplica) setDown(v bool) {
	d.mu.Lock()
	d.down = v
	d.mu.Unlock()
}

func (d *downReplica) offline() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.down {
		return &transport.ConnError{Op: "call", Err: errors.New("replica down")}
	}
	return nil
}

func (d *downReplica) Ping(ctx context.Context) error {
	if err := d.offline(); err != nil {
		return err
	}
	return d.ReplicaNode.Ping(ctx)
}

func (d *downReplica) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	if err := d.offline(); err != nil {
		return nil, nil, err
	}
	return d.ReplicaNode.SecRecBatch(ctx, ts)
}

func (d *downReplica) FetchProfiles(ids []uint64) ([][]byte, error) {
	if err := d.offline(); err != nil {
		return nil, err
	}
	return d.ReplicaNode.FetchProfiles(ids)
}

// TestLeakageInvariantReplicated pins the access-pattern guarantee for the
// replicated fleet (DESIGN.md §17): replication multiplies WHERE a query
// can be served, never HOW MUCH any one store sees.
//
// Failover: with every replica healthy, exactly one replica per group
// unmasks exactly the fixed l·(d+1)+stash budget per query and its
// siblings unmask zero. When the serving replica dies, the sibling takes
// over at exactly the same budget — the dead replica's cloud sees nothing
// at all, and no query ever splits or doubles its budget across replicas.
//
// Repair: an anti-entropy repair of a dead-empty replica is, to each
// store, the dynamic scheme's ordinary bucket traffic — the source serves
// a full data-independent fetch sweep (tables × width buckets, exactly
// what churn reads look like), the destination absorbs the same-sized
// store sweep, and a repeated repair produces byte-identical traffic
// counts, proving the pattern carries no information about which buckets
// actually differed. Per-query fetch budgets are identical on source and
// repaired replica afterwards.
func TestLeakageInvariantReplicated(t *testing.T) {
	sf, ds, uploads := leakageFixture(t, "leakage-replicated")
	const (
		nPartitions = 2
		nReplicas   = 2
	)
	shards, err := sf.BuildShardedIndex(uploads, nPartitions, nil)
	if err != nil {
		t.Fatal(err)
	}

	regs := make([][]*obs.Registry, nPartitions)
	reps := make([][]*downReplica, nPartitions)
	nodes := make([]pisd.ShardNode, nPartitions)
	greg := obs.NewRegistry()
	groups := make([]*pisd.ReplicaGroup, nPartitions)
	for s, sh := range shards {
		regs[s] = make([]*obs.Registry, nReplicas)
		reps[s] = make([]*downReplica, nReplicas)
		members := make([]pisd.ReplicaNode, nReplicas)
		for r := 0; r < nReplicas; r++ {
			cs := pisd.NewCloud()
			regs[s][r] = obs.NewRegistry()
			cs.SetRegistry(regs[s][r])
			cs.SetIndex(sh.Index)
			cs.PutProfiles(sh.EncProfiles)
			reps[s][r] = &downReplica{ReplicaNode: pisd.NewLocalShard(cs)}
			members[r] = reps[s][r]
		}
		g, err := pisd.NewReplicaGroup(s, pisd.ReplicaGroupConfig{}, members...)
		if err != nil {
			t.Fatal(err)
		}
		g.SetRegistry(greg)
		groups[s] = g
		nodes[s] = g
	}
	pool, err := pisd.NewShardPool(pisd.DefaultShardPoolConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}

	budget := func(s int) int64 { return int64(shards[s].Index.Params().BucketsPerQuery()) }
	snapshot := func() [][]map[string]int64 {
		out := make([][]map[string]int64, nPartitions)
		for s := range regs {
			out[s] = make([]map[string]int64, nReplicas)
			for r := range regs[s] {
				out[s][r] = counters(regs[s][r])
			}
		}
		return out
	}
	unmaskedDelta := func(before [][]map[string]int64, s, r int) int64 {
		return counters(regs[s][r])["cloud.buckets_unmasked"] - before[s][r]["cloud.buckets_unmasked"]
	}
	discover := func(id uint64) {
		t.Helper()
		_, partial, err := sf.DiscoverSharded(context.Background(), pool, ds.Profiles[id-1], 5, id)
		if err != nil {
			t.Fatal(err)
		}
		if partial {
			t.Fatal("replicated fan-out reported partial results with a live replica per group")
		}
	}

	// Healthy fleet: replica 0 of each group serves exactly the budget,
	// replica 1 sees nothing.
	for _, id := range []uint64{7, 93} {
		before := snapshot()
		discover(id)
		for s := 0; s < nPartitions; s++ {
			if got := unmaskedDelta(before, s, 0); got != budget(s) {
				t.Errorf("healthy, target %d: group %d serving replica unmasked %d, want budget %d", id, s, got, budget(s))
			}
			if got := unmaskedDelta(before, s, 1); got != 0 {
				t.Errorf("healthy, target %d: group %d idle replica unmasked %d, want 0", id, s, got)
			}
		}
	}

	// Kill the serving replica everywhere: the sibling serves the SAME
	// budget, the corpse's cloud sees nothing (the failure is at the wire).
	for s := range reps {
		reps[s][0].setDown(true)
	}
	failovers0 := counters(greg)["replica.failovers"]
	before := snapshot()
	discover(42)
	if d := counters(greg)["replica.failovers"] - failovers0; d != nPartitions {
		t.Errorf("replica.failovers advanced by %d, want %d (one per group)", d, nPartitions)
	}
	for s := 0; s < nPartitions; s++ {
		if got := unmaskedDelta(before, s, 0); got != 0 {
			t.Errorf("failover: group %d dead replica unmasked %d, want 0", s, got)
		}
		if got := unmaskedDelta(before, s, 1); got != budget(s) {
			t.Errorf("failover: group %d takeover replica unmasked %d, want budget %d", s, got, budget(s))
		}
		if q := counters(regs[s][1])["cloud.queries"] - before[s][1]["cloud.queries"]; q != 1 {
			t.Errorf("failover: group %d takeover replica answered %d queries, want 1", s, q)
		}
	}

	// Recovery: the healed replica resumes serving at the same budget.
	for s := range reps {
		reps[s][0].setDown(false)
	}
	before = snapshot()
	discover(108)
	for s := 0; s < nPartitions; s++ {
		total := unmaskedDelta(before, s, 0) + unmaskedDelta(before, s, 1)
		if total != budget(s) {
			t.Errorf("healed: group %d unmasked %d across replicas, want exactly one budget %d", s, total, budget(s))
		}
	}

	for s := range regs {
		for r := range regs[s] {
			if v := counters(regs[s][r])["cloud.leakage_invariant_violations"]; v != 0 {
				t.Errorf("group %d replica %d: leakage_invariant_violations = %d, want 0", s, r, v)
			}
		}
	}

	// ---- repair traffic: anti-entropy looks exactly like churn ----

	dsf, dds, duploads := leakageFixture(t, "leakage-replicated-dyn")
	_ = dds
	dshards, err := dsf.BuildShardedDynamicIndex(duploads, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srcCS, dstCS := pisd.NewCloud(), pisd.NewCloud()
	srcReg, dstReg := obs.NewRegistry(), obs.NewRegistry()
	srcCS.SetRegistry(srcReg)
	dstCS.SetRegistry(dstReg)
	srcCS.SetDynIndex(dshards[0].Index)
	srcCS.PutProfiles(dshards[0].EncProfiles)
	src, dst := pisd.NewLocalShard(srcCS), pisd.NewLocalShard(dstCS)

	repair, err := pisd.NewReplicaRepair(dshards, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dsf.IndexParams()
	if err != nil {
		t.Fatal(err)
	}
	sweep := int64(p.Tables * dshards[0].Index.Width())

	var fetched, stored [2]int64
	for round := 0; round < 2; round++ {
		sb, db := counters(srcReg), counters(dstReg)
		if err := repair(0, src, dst); err != nil {
			t.Fatalf("repair round %d: %v", round, err)
		}
		sa, da := counters(srcReg), counters(dstReg)
		fetched[round] = sa["cloud.dyn_buckets_fetched"] - sb["cloud.dyn_buckets_fetched"]
		stored[round] = da["cloud.dyn_buckets_stored"] - db["cloud.dyn_buckets_stored"]
		if fetched[round] != sweep {
			t.Errorf("repair round %d: source served %d bucket fetches, want the full data-independent sweep %d",
				round, fetched[round], sweep)
		}
		if stored[round] != sweep {
			t.Errorf("repair round %d: destination absorbed %d bucket stores, want %d", round, stored[round], sweep)
		}
		if d := sa["cloud.dyn_buckets_stored"] - sb["cloud.dyn_buckets_stored"]; d != 0 {
			t.Errorf("repair round %d: source saw %d bucket stores, want 0", round, d)
		}
		if d := da["cloud.dyn_buckets_fetched"] - db["cloud.dyn_buckets_fetched"]; d != 0 {
			t.Errorf("repair round %d: destination saw %d bucket fetches, want 0", round, d)
		}
	}
	// Round two repaired an already-converged replica; identical traffic
	// proves the pattern is independent of which buckets differed.
	if fetched[0] != fetched[1] || stored[0] != stored[1] {
		t.Errorf("repair traffic varies with replica state: fetched %v stored %v", fetched, stored)
	}

	// Per-query budget identical on source and repaired replica.
	target := dds.Profiles[10]
	sb := counters(srcReg)
	if _, err := dsf.DynSearch(dshards[0].Client, srcCS, srcCS, target, 5, 11); err != nil {
		t.Fatal(err)
	}
	srcFetch := counters(srcReg)["cloud.dyn_buckets_fetched"] - sb["cloud.dyn_buckets_fetched"]
	db := counters(dstReg)
	if _, err := dsf.DynSearch(dshards[0].Client, dstCS, dstCS, target, 5, 11); err != nil {
		t.Fatal(err)
	}
	dstFetch := counters(dstReg)["cloud.dyn_buckets_fetched"] - db["cloud.dyn_buckets_fetched"]
	if srcFetch != dstFetch || srcFetch <= 0 {
		t.Errorf("post-repair search budgets differ: source fetched %d, repaired replica fetched %d", srcFetch, dstFetch)
	}
}
