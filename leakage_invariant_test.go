package pisd_test

import (
	"context"
	"errors"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pisd"
	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/shard"
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

	serving, err := sf.NewServing(pool, pisd.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{3, 88, 149} {
		before := make([]map[string]int64, nShards)
		for s := range regs {
			before[s] = counters(regs[s])
		}
		_, partial, err := serving.Discover(context.Background(), ds.Profiles[id-1], 5, id)
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
	dyn, err := sf.NewDynServing([]pisd.DynShard{{Client: dynClient}}, []pisd.DynNode{pisd.NewLocalShard(cs)}, nil, pisd.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []uint64{5, 111} {
		fetched := make([]int64, 2)
		for round := range fetched {
			before := counters(reg)
			if _, _, err := dyn.Search(ds.Profiles[id-1], 5, id); err != nil {
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
	serving, err := sf.NewServing(pool, pisd.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	discover := func(id uint64) {
		t.Helper()
		_, partial, err := serving.Discover(context.Background(), ds.Profiles[id-1], 5, id)
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

	srcDyn, err := dsf.NewDynServing(dshards, []pisd.DynNode{src}, nil, pisd.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dstDyn, err := dsf.NewDynServing(dshards, []pisd.DynNode{dst}, nil, pisd.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := srcDyn.NewReplicaSync()
	if err != nil {
		t.Fatal(err)
	}
	repair := rs.Repair(16)
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
	if _, _, err := srcDyn.Search(target, 5, 11); err != nil {
		t.Fatal(err)
	}
	srcFetch := counters(srcReg)["cloud.dyn_buckets_fetched"] - sb["cloud.dyn_buckets_fetched"]
	db := counters(dstReg)
	if _, _, err := dstDyn.Search(target, 5, 11); err != nil {
		t.Fatal(err)
	}
	dstFetch := counters(dstReg)["cloud.dyn_buckets_fetched"] - db["cloud.dyn_buckets_fetched"]
	if srcFetch != dstFetch || srcFetch <= 0 {
		t.Errorf("post-repair search budgets differ: source fetched %d, repaired replica fetched %d", srcFetch, dstFetch)
	}
}

// wireEvent is one cloud-visible call on one shard: a bucket read or
// write with the positions it addresses, a profile read with the ids it
// names, a profile put, or a profile delete.
type wireEvent struct {
	op   string
	refs []core.BucketRef
	ids  []uint64
}

// transcriptNode records every call its shard's cloud sees, in order.
type transcriptNode struct {
	frontend.DynNode
	mu  sync.Mutex
	log []wireEvent
}

func (n *transcriptNode) record(e wireEvent) {
	n.mu.Lock()
	n.log = append(n.log, e)
	n.mu.Unlock()
}

func (n *transcriptNode) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	n.record(wireEvent{op: "fetch buckets", refs: slices.Clone(refs)})
	return n.DynNode.FetchBuckets(refs)
}

func (n *transcriptNode) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	n.record(wireEvent{op: "store buckets", refs: slices.Clone(refs)})
	return n.DynNode.StoreBuckets(refs, buckets)
}

func (n *transcriptNode) FetchProfiles(ids []uint64) ([][]byte, error) {
	n.record(wireEvent{op: "fetch profiles", ids: slices.Clone(ids)})
	return n.DynNode.FetchProfiles(ids)
}

func (n *transcriptNode) PutProfiles(profiles map[uint64][]byte) error {
	n.record(wireEvent{op: "put profiles", ids: slices.Sorted(maps.Keys(profiles))})
	return n.DynNode.PutProfiles(profiles)
}

func (n *transcriptNode) DeleteProfile(id uint64) error {
	n.record(wireEvent{op: "delete profile", ids: []uint64{id}})
	return n.DynNode.DeleteProfile(id)
}

// heldScriptOp is one step of the held-set script: a search for a
// profile, an insert of id under a profile, a delete of id, or a duplicate
// insert of an indexed id under its own profile, which the bucket rounds
// refuse before any profile request is sent.
type heldScriptOp struct {
	kind    string
	id      uint64
	profile []float64
}

// heldSetRun is one run of the script against a fresh 2-shard dynamic
// deployment built from fixed seeds: per op, the transcript each shard
// recorded, the ids each shard's bucket read recovers just before the op,
// and what the op answered.
type heldSetRun struct {
	events  [][][]wireEvent // [op][shard]
	found   [][][]uint64    // [op][shard], search ops only
	matches [][]pisd.Match
	hits    []bool
}

// runHeldScript boots the deployment and runs script through a DynServing
// with the given cache bound.
func runHeldScript(t *testing.T, script []heldScriptOp, uploads []pisd.Upload, entries int) heldSetRun {
	t.Helper()
	sf, _, _ := leakageFixture(t, "leakage-held-set")
	built, err := sf.BuildShardedDynamicIndex(uploads, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := make([]frontend.DynNode, len(built))
	recs := make([]*transcriptNode, len(built))
	nodes := make([]frontend.DynNode, len(built))
	for s, sh := range built {
		cs := cloud.New()
		cs.SetDynIndex(sh.Index)
		cs.PutProfiles(sh.EncProfiles)
		inner[s] = shard.NewLocal(cs)
		recs[s] = &transcriptNode{DynNode: inner[s]}
		nodes[s] = recs[s]
	}
	serv, err := sf.NewDynServing(built, nodes, nil, pisd.ServingConfig{CacheEntries: entries})
	if err != nil {
		t.Fatal(err)
	}
	freg := obs.NewRegistry()
	frontend.SetRegistry(freg)
	defer frontend.SetRegistry(obs.Default)

	var run heldSetRun
	for i, op := range script {
		var found [][]uint64
		if op.kind == "search" {
			// What each shard's bucket read recovers, read beside the
			// recorded transcript: the reference needs it to predict the
			// profile leg.
			for s, sh := range built {
				ids, err := sh.Client.Search(inner[s], sf.ComputeMeta(op.profile))
				if err != nil {
					t.Fatal(err)
				}
				found = append(found, ids)
			}
		}
		marks := make([]int, len(recs))
		for s, r := range recs {
			marks[s] = len(r.log)
		}
		hits := counters(freg)["frontend.cache_hits"]
		var matches []pisd.Match
		switch op.kind {
		case "search":
			var partial bool
			matches, partial, err = serv.Search(op.profile, 5, 0)
			if err == nil && partial {
				t.Fatalf("op %d: partial answer from a healthy deployment", i)
			}
		case "insert":
			err = serv.Insert(op.id, op.profile)
		case "duplicate insert":
			if err = serv.Insert(op.id, op.profile); !errors.Is(err, core.ErrAlreadyIndexed) {
				t.Fatalf("op %d: duplicate insert of %d: %v, want %v", i, op.id, err, core.ErrAlreadyIndexed)
			}
			err = nil
		case "delete":
			err = serv.Delete(op.id, op.profile)
		}
		if err != nil {
			t.Fatalf("op %d (%s %d): %v", i, op.kind, op.id, err)
		}
		events := make([][]wireEvent, len(recs))
		for s, r := range recs {
			events[s] = slices.Clone(r.log[marks[s]:])
		}
		run.events = append(run.events, events)
		run.found = append(run.found, found)
		run.matches = append(run.matches, matches)
		run.hits = append(run.hits, counters(freg)["frontend.cache_hits"] > hits)
	}
	if counters(freg)["frontend.profiles_elided"] == 0 {
		t.Fatal("no search answered a candidate from the held set")
	}
	return run
}

// heldRef is the test-side reference for the held set, computed from the
// recorded transcript alone: the ids carried by the last cap profile legs
// the cloud sent (fetch answers and acknowledged puts, in order), less the
// ids deleted since.
type heldRef struct {
	cap     int
	legs    []heldRefLeg
	holds   map[uint64]int // id → leg that last carried it
	seq     int
	evicted int // ids released by a leg leaving the window
}

type heldRefLeg struct {
	seq int
	ids []uint64
}

func (h *heldRef) leg(ids []uint64) {
	h.seq++
	for _, id := range ids {
		h.holds[id] = h.seq
	}
	h.legs = append(h.legs, heldRefLeg{seq: h.seq, ids: ids})
	if len(h.legs) > h.cap {
		for _, id := range h.legs[0].ids {
			if h.holds[id] == h.legs[0].seq {
				delete(h.holds, id)
				h.evicted++
			}
		}
		h.legs = h.legs[1:]
	}
}

// TestLeakageInvariantHeldSet pins DESIGN.md §17's claim for the held set:
// which ids a dynamic miss leaves out of its profile read is a function of
// the cloud-visible transcript, never of what the cloud cannot see. Run A
// is a serial script of searches, inserts and deletes; run B is the same
// script with extra repeats of earlier searches that are guaranteed cache
// hits, which reorder the result cache's LRU. Every shard's recorded
// transcript — bucket positions read and written, profile ids read, put
// and deleted — must be identical across the two runs, and every profile
// read of run A must equal the prediction of a reference that recomputes
// the held set from the transcript alone.
func TestLeakageInvariantHeldSet(t *testing.T) {
	const members, entries = 130, 6
	_, ds, all := leakageFixture(t, "leakage-held-set")
	uploads := all[:members]
	p := func(id uint64) []float64 { return ds.Profiles[id-1] }
	search := func(ids ...uint64) []heldScriptOp {
		var ops []heldScriptOp
		for _, id := range ids {
			ops = append(ops, heldScriptOp{kind: "search", id: id, profile: p(id)})
		}
		return ops
	}
	var a []heldScriptOp
	// The insert lands in user 3's buckets: the search after it misses over
	// candidates the held set covers entirely.
	a = append(a, search(3)...)
	a = append(a, heldScriptOp{kind: "insert", id: 131, profile: p(3)})
	// A failed update that sent no profile request leaves the held set as
	// the cloud reconstructs it: the search after it still elides 131.
	a = append(a, heldScriptOp{kind: "duplicate insert", id: 131, profile: p(3)})
	a = append(a, search(3, 1, 2, 4, 5, 6, 7, 8, 9, 10)...)
	a = append(a, heldScriptOp{kind: "delete", id: 5, profile: p(5)})
	a = append(a, search(5, 4, 6)...)
	a = append(a, heldScriptOp{kind: "insert", id: 5, profile: p(135)}) // re-insert: a new ciphertext
	a = append(a, search(5, 135, 11, 12, 13, 14, 2, 4, 6, 1)...)
	a = append(a, heldScriptOp{kind: "insert", id: 132, profile: p(10)})
	a = append(a, heldScriptOp{kind: "delete", id: 131, profile: p(3)})
	a = append(a, search(3, 10, 9, 131, 7, 8, 12, 5)...)

	// Run B: after every search, repeat the first search since the last
	// update. Refreshed after every miss since, it is a guaranteed hit, and
	// it stays cached in B long after A's LRU evicted it.
	var b []heldScriptOp
	var repeats []bool
	anchor := -1
	for i, op := range a {
		b, repeats = append(b, op), append(repeats, false)
		switch {
		case op.kind != "search":
			anchor = -1
		case anchor < 0:
			anchor = i
		default:
			b, repeats = append(b, a[anchor]), append(repeats, true)
		}
	}

	runA := runHeldScript(t, a, uploads, entries)
	runB := runHeldScript(t, b, uploads, entries)

	// B's transcript, its repeats removed, is A's; every repeat was a hit
	// that reached no shard, and every op answered as it did in A.
	j := 0
	for i := range b {
		if repeats[i] {
			if !runB.hits[i] {
				t.Fatalf("run B op %d: the repeated search missed the cache", i)
			}
			for s, ev := range runB.events[i] {
				if len(ev) != 0 {
					t.Fatalf("run B op %d: a cache hit reached shard %d: %v", i, s, ev)
				}
			}
			continue
		}
		if !reflect.DeepEqual(runB.events[i], runA.events[j]) {
			t.Fatalf("op %d (%s %d): transcript differs between the runs:\nA %v\nB %v", j, a[j].kind, a[j].id, runA.events[j], runB.events[i])
		}
		if !reflect.DeepEqual(runB.matches[i], runA.matches[j]) {
			t.Fatalf("op %d: run B answered %v, run A %v", j, runB.matches[i], runA.matches[j])
		}
		j++
	}

	// Each profile read of A is the reference's prediction: the recovered
	// ids, in order, less the held set recomputed from the transcript up to
	// the op. The shards' legs are concurrent, so they join the reference
	// after every shard's read is predicted, in shard order.
	ref := &heldRef{cap: entries, holds: make(map[uint64]int)}
	elided, skipped, afterFailed := 0, 0, 0
	for i, op := range a {
		if op.kind == "search" && i > 0 && a[i-1].kind == "duplicate insert" {
			// The reference must predict the failed insert's id elided.
			dup := a[i-1].id
			for s := range runA.events[i] {
				if _, held := ref.holds[dup]; held && slices.Contains(runA.found[i][s], dup) {
					afterFailed++
				}
			}
		}
		for s, events := range runA.events[i] {
			if op.kind != "search" || len(events) == 0 {
				continue
			}
			var want []uint64
			for _, id := range runA.found[i][s] {
				if _, held := ref.holds[id]; !held {
					want = append(want, id)
				}
			}
			elided += len(runA.found[i][s]) - len(want)
			if len(want) == 0 {
				skipped++
			}
			var got []uint64
			reads := 0
			for _, e := range events {
				if e.op == "fetch profiles" {
					got, reads = e.ids, reads+1
				}
			}
			if (len(want) == 0) != (reads == 0) || reads > 1 || !slices.Equal(got, want) {
				t.Fatalf("op %d (search %d) shard %d: profile reads %v, reference predicts %v", i, op.id, s, events, want)
			}
		}
		for _, events := range runA.events[i] {
			for _, e := range events {
				switch e.op {
				case "fetch profiles", "put profiles":
					ref.leg(e.ids)
				case "delete profile":
					delete(ref.holds, e.ids[0])
				}
			}
		}
	}
	t.Logf("run A: %d ops, %d candidates elided, %d profile legs skipped, %d held ids evicted by the window", len(a), elided, skipped, ref.evicted)
	if elided == 0 || skipped == 0 || ref.evicted == 0 || afterFailed == 0 {
		t.Fatalf("script too weak: %d elided, %d legs skipped, %d held ids evicted, %d held ids recovered right after a failed update", elided, skipped, ref.evicted, afterFailed)
	}
}
