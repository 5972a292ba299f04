package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/dataset"
	"pisd/internal/faultnet"
	"pisd/internal/frontend"
	"pisd/internal/lsh"
	"pisd/internal/transport"
)

func testFrontend(t testing.TB, keySeed string) *frontend.Frontend {
	t.Helper()
	cfg := frontend.Config{
		LSH:        lsh.Params{Dim: 100, Tables: 6, Atoms: 2, Width: 0.8, Seed: 1},
		LoadFactor: 0.8,
		ProbeRange: 5,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       1,
		KeySeed:    keySeed,
	}
	f, err := frontend.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testUploads(t testing.TB, f *frontend.Frontend, n int) ([]frontend.Upload, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Users: n, Dim: 100, Topics: 10, TopicsPerUser: 2,
		ActiveWords: 20, Noise: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ups := make([]frontend.Upload, n)
	for i, p := range ds.Profiles {
		ups[i] = frontend.Upload{ID: uint64(i + 1), Profile: p, Meta: f.ComputeMeta(p)}
	}
	return ups, ds
}

// localPool builds a sharded index over nShards in-process cloud servers
// and installs each shard.
func localPool(t testing.TB, f *frontend.Frontend, uploads []frontend.Upload, nShards int) *Pool {
	t.Helper()
	shards, err := f.BuildShardedIndex(uploads, nShards, nil)
	if err != nil {
		t.Fatalf("BuildShardedIndex: %v", err)
	}
	nodes := make([]Node, nShards)
	for s := range nodes {
		nodes[s] = NewLocal(cloud.New())
	}
	pool, err := NewPool(DefaultConfig(), nodes...)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	for s, sh := range shards {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatalf("InstallShard(%d): %v", s, err)
		}
	}
	return pool
}

// TestPoolEqualsSingleNode is the headline acceptance check: for the same
// dataset, keys and trapdoor, 4-shard fan-out discovery returns exactly
// the single-node ranked top-K.
func TestPoolEqualsSingleNode(t *testing.T) {
	const n, shards, k = 300, 4, 10

	single := testFrontend(t, "shard-test")
	uploads, ds := testUploads(t, single, n)

	idx, encProfiles, err := single.BuildIndex(uploads)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	sharded := testFrontend(t, "shard-test")
	pool := localPool(t, sharded, uploads, shards)

	queries, _ := ds.Queries(20, 99)
	for qi, q := range queries {
		want, err := single.Discover(cs, q, k, 0)
		if err != nil {
			t.Fatalf("query %d: Discover: %v", qi, err)
		}
		got, partial, err := uncached(t, sharded, pool).Discover(context.Background(), q, k, 0)
		if err != nil {
			t.Fatalf("query %d: Discover: %v", qi, err)
		}
		if partial {
			t.Fatalf("query %d: unexpected partial result with all shards alive", qi)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d matches, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Distance != want[i].Distance {
				t.Fatalf("query %d rank %d: got (%d, %v), want (%d, %v)",
					qi, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
			}
		}
	}
}

// remotePool builds a sharded index over nShards TCP transport servers.
// It returns the pool and the servers (so tests can kill individual
// shards).
func remotePool(t *testing.T, f *frontend.Frontend, uploads []frontend.Upload, nShards int, cfg Config) (*Pool, []*transport.Server) {
	t.Helper()
	shards, err := f.BuildShardedIndex(uploads, nShards, nil)
	if err != nil {
		t.Fatalf("BuildShardedIndex: %v", err)
	}
	nodes := make([]Node, nShards)
	servers := make([]*transport.Server, nShards)
	for s := range nodes {
		srv := transport.NewServer(cloud.New())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen shard %d: %v", s, err)
		}
		servers[s] = srv
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		remote := NewRemote(addr)
		t.Cleanup(func() { remote.Close() })
		nodes[s] = remote
	}
	pool, err := NewPool(cfg, nodes...)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	for s, sh := range shards {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatalf("InstallShard(%d): %v", s, err)
		}
	}
	return pool, servers
}

func shutdownServer(t *testing.T, srv *transport.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestPartialOnDeadShard kills one remote shard and checks that fan-out
// discovery returns the surviving shards' matches flagged partial: the
// result is exactly the all-alive result minus the dead shard's users.
func TestPartialOnDeadShard(t *testing.T) {
	const n, shards, dead = 240, 4, 2

	f := testFrontend(t, "shard-partial")
	uploads, ds := testUploads(t, f, n)
	cfg := DefaultConfig()
	cfg.Timeout = 2 * time.Second
	var shardErrs []int
	var mu sync.Mutex
	cfg.OnShardError = func(s int, err error) {
		mu.Lock()
		shardErrs = append(shardErrs, s)
		mu.Unlock()
	}
	pool, servers := remotePool(t, f, uploads, shards, cfg)

	queries, _ := ds.Queries(3, 7)
	q := queries[0]

	// k > n so both calls return every candidate, making the lists
	// directly comparable.
	full, partial, err := uncached(t, f, pool).Discover(context.Background(), q, n+1, 0)
	if err != nil {
		t.Fatalf("Discover (all alive): %v", err)
	}
	if partial {
		t.Fatal("unexpected partial result with all shards alive")
	}

	shutdownServer(t, servers[dead])

	got, partial, err := uncached(t, f, pool).Discover(context.Background(), q, n+1, 0)
	if err != nil {
		t.Fatalf("Discover (shard %d dead): %v", dead, err)
	}
	if !partial {
		t.Fatal("expected partial result with a dead shard")
	}
	var want []frontend.Match
	for _, m := range full {
		if pool.Owner(m.ID) != dead {
			want = append(want, m)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("rank %d: got %d, want %d", i, got[i].ID, want[i].ID)
		}
		if pool.Owner(got[i].ID) == dead {
			t.Fatalf("rank %d: id %d owned by dead shard %d", i, got[i].ID, dead)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(shardErrs) == 0 {
		t.Fatal("OnShardError never observed the dead shard")
	}
	for _, s := range shardErrs {
		if s != dead {
			t.Fatalf("OnShardError reported shard %d, only %d is dead", s, dead)
		}
	}
}

// TestAllShardsDeadErrors kills every shard: discovery must fail, not
// return an empty partial result.
func TestAllShardsDeadErrors(t *testing.T) {
	const n, shards = 120, 2

	f := testFrontend(t, "shard-all-dead")
	uploads, ds := testUploads(t, f, n)
	cfg := DefaultConfig()
	cfg.Timeout = 2 * time.Second
	pool, servers := remotePool(t, f, uploads, shards, cfg)
	for _, srv := range servers {
		shutdownServer(t, srv)
	}
	queries, _ := ds.Queries(1, 3)
	_, _, err := uncached(t, f, pool).Discover(context.Background(), queries[0], 10, 0)
	if err == nil {
		t.Fatal("expected error with every shard dead")
	}
	if !strings.Contains(err.Error(), "all 2 shards failed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPingReportsDeadShard checks the pool's health probe.
func TestPingReportsDeadShard(t *testing.T) {
	const n, shards, dead = 120, 3, 1

	f := testFrontend(t, "shard-ping")
	uploads, _ := testUploads(t, f, n)
	cfg := DefaultConfig()
	cfg.Timeout = 2 * time.Second
	pool, servers := remotePool(t, f, uploads, shards, cfg)
	shutdownServer(t, servers[dead])

	errs := pool.Ping(context.Background())
	if len(errs) != shards {
		t.Fatalf("Ping returned %d results, want %d", len(errs), shards)
	}
	for s, err := range errs {
		if s == dead && err == nil {
			t.Fatalf("shard %d is dead but Ping reported healthy", s)
		}
		if s != dead && err != nil {
			t.Fatalf("shard %d is alive but Ping reported %v", s, err)
		}
	}
}

// faultPool builds a sharded index served by real transport servers and
// dials every shard through the faultnet harness, one peer per shard
// (shardPeer(s)), so tests can script faults and partitions per shard.
func faultPool(t *testing.T, f *frontend.Frontend, uploads []frontend.Upload, nShards int, cfg Config, fn *faultnet.Network) *Pool {
	t.Helper()
	shards, err := f.BuildShardedIndex(uploads, nShards, nil)
	if err != nil {
		t.Fatalf("BuildShardedIndex: %v", err)
	}
	nodes := make([]Node, nShards)
	for s := range nodes {
		srv := transport.NewServer(cloud.New())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen shard %d: %v", s, err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		remote := NewRemoteDialer(addr, fn.Dialer(shardPeer(s)))
		t.Cleanup(func() { remote.Close() })
		nodes[s] = remote
	}
	pool, err := NewPool(cfg, nodes...)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	for s, sh := range shards {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatalf("InstallShard(%d): %v", s, err)
		}
	}
	return pool
}

func shardPeer(s int) string { return fmt.Sprintf("shard%d", s) }

// appErrNode wraps a Node and fails every SecRecBatch with an application
// error, which must not be retried.
type appErrNode struct {
	Node
	mu    sync.Mutex
	calls int
}

func (a *appErrNode) SecRecBatch(context.Context, []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	a.mu.Lock()
	a.calls++
	a.mu.Unlock()
	return nil, nil, &transport.RemoteError{Msg: "no index installed"}
}

// TestRetryRecoversConnError checks that one transient connection fault
// per shard — a real mid-request connection kill, injected on the wire by
// the faultnet harness — is absorbed by the pool's single default retry,
// yielding a complete (non-partial) result on fresh connections.
func TestRetryRecoversConnError(t *testing.T) {
	const n, shards = 240, 4

	f := testFrontend(t, "shard-retry")
	uploads, ds := testUploads(t, f, n)
	fn := faultnet.New(faultnet.Plan{Seed: 42})
	fn.SetEnabled(false) // no background noise; only the scripted faults
	pool := faultPool(t, f, uploads, shards, DefaultConfig(), fn)

	// Warm every shard's connection, then kill each shard's next write.
	for s, err := range pool.Ping(context.Background()) {
		if err != nil {
			t.Fatalf("Ping shard %d: %v", s, err)
		}
	}
	for s := 0; s < shards; s++ {
		fn.FailNextWrites(shardPeer(s), 1)
	}
	queries, _ := ds.Queries(1, 11)
	matches, partial, err := uncached(t, f, pool).Discover(context.Background(), queries[0], 10, 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if partial {
		t.Fatal("retry should have absorbed the single fault per shard; got partial")
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
}

// TestPoolUnderSeededFaults runs discoveries against remote shards through
// a seeded random fault schedule (dropped frames and connection resets)
// and checks every complete result against the fault-free reference: the
// pool's retries may sweat, but results must never be silently wrong or
// reordered. Reproduce any failure with the printed seed.
func TestPoolUnderSeededFaults(t *testing.T) {
	const n, shards, seed = 240, 3, 77
	t.Logf("faultnet seed %d", seed)

	f := testFrontend(t, "shard-seeded-faults")
	uploads, ds := testUploads(t, f, n)
	fn := faultnet.New(faultnet.Plan{Seed: seed, DropProb: 0.05, ResetProb: 0.03})
	fn.SetEnabled(false)
	cfg := DefaultConfig()
	cfg.Timeout = 300 * time.Millisecond
	cfg.Retries = 4
	pool := faultPool(t, f, uploads, shards, cfg, fn)

	queries, _ := ds.Queries(12, 23)
	want := make([][]frontend.Match, len(queries))
	for q, target := range queries {
		m, partial, err := uncached(t, f, pool).Discover(context.Background(), target, 8, 0)
		if err != nil || partial {
			t.Fatalf("fault-free query %d: partial=%v err=%v", q, partial, err)
		}
		want[q] = m
	}

	fn.SetEnabled(true)
	complete := 0
	for q, target := range queries {
		got, partial, err := uncached(t, f, pool).Discover(context.Background(), target, 8, 0)
		if err != nil {
			if !transport.IsConnError(err) {
				t.Fatalf("query %d failed with non-transport error %T: %v", q, err, err)
			}
			continue
		}
		if partial {
			continue
		}
		complete++
		if err := frontend.EqualMatches(got, want[q]); err != nil {
			t.Fatalf("seed %d query %d diverged under faults: %v", seed, q, err)
		}
	}
	if complete == 0 {
		t.Fatalf("seed %d: no query completed; fault plan too hostile to assert anything", seed)
	}
}

// TestApplicationErrorsNotRetried checks the retry gate: a RemoteError
// shard is called exactly once per fan-out and marks the result partial.
func TestApplicationErrorsNotRetried(t *testing.T) {
	const n, shards = 240, 4

	f := testFrontend(t, "shard-apperr")
	uploads, ds := testUploads(t, f, n)
	built, err := f.BuildShardedIndex(uploads, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := &appErrNode{Node: NewLocal(cloud.New())}
	nodes := make([]Node, shards)
	for s := range nodes {
		if s == 1 {
			nodes[s] = broken
			continue
		}
		nodes[s] = NewLocal(cloud.New())
	}
	cfg := DefaultConfig()
	cfg.Retries = 3
	pool, err := NewPool(cfg, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range built {
		if s == 1 {
			continue // the broken node rejects everything anyway
		}
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatal(err)
		}
	}
	queries, _ := ds.Queries(1, 13)
	_, partial, err := uncached(t, f, pool).Discover(context.Background(), queries[0], 10, 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if !partial {
		t.Fatal("expected partial result with a failing shard")
	}
	broken.mu.Lock()
	defer broken.mu.Unlock()
	if broken.calls != 1 {
		t.Fatalf("application error retried: %d calls, want 1", broken.calls)
	}
}

// TestNewPoolValidation exercises pool construction errors.
func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(DefaultConfig()); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := NewPool(DefaultConfig(), nil); err == nil {
		t.Fatal("nil node accepted")
	}
	cfg := DefaultConfig()
	cfg.Retries = -1
	if _, err := NewPool(cfg, NewLocal(cloud.New())); err == nil {
		t.Fatal("negative retries accepted")
	}
}

// uncached is the static serving path with a zero config — no cache, no
// gate — over pool.
func uncached(t testing.TB, f *frontend.Frontend, pool frontend.FanoutBatchServer) *frontend.Serving {
	t.Helper()
	s, err := f.NewServing(pool, frontend.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// uncachedDyn is the dynamic serving path with a zero config over shards
// paired with nodes.
func uncachedDyn(t testing.TB, f *frontend.Frontend, shards []frontend.DynShard, nodes []frontend.DynNode, owner func(uint64) int) *frontend.DynServing {
	t.Helper()
	s, err := f.NewDynServing(shards, nodes, owner, frontend.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dynSetup builds a sharded dynamic deployment over in-process nodes.
func dynSetup(t testing.TB, f *frontend.Frontend, uploads []frontend.Upload, nShards int) ([]frontend.DynShard, []frontend.DynNode, *Pool) {
	t.Helper()
	shards, err := f.BuildShardedDynamicIndex(uploads, nShards, nil)
	if err != nil {
		t.Fatalf("BuildShardedDynamicIndex: %v", err)
	}
	nodes := make([]Node, nShards)
	dynNodes := make([]frontend.DynNode, nShards)
	for s := range nodes {
		l := NewLocal(cloud.New())
		nodes[s] = l
		dynNodes[s] = l
	}
	pool, err := NewPool(DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range shards {
		if err := pool.InstallDynShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatalf("InstallDynShard(%d): %v", s, err)
		}
	}
	return shards, dynNodes, pool
}

// TestDynShardedSearchAndUpdate covers routing: an inserted user becomes
// discoverable via fan-out search, a deleted user disappears.
func TestDynShardedSearchAndUpdate(t *testing.T) {
	const n, shards = 240, 3

	f := testFrontend(t, "shard-dyn")
	uploads, ds := testUploads(t, f, n)
	dynShards, nodes, pool := dynSetup(t, f, uploads, shards)
	dyn := uncachedDyn(t, f, dynShards, nodes, pool.Owner)

	// Insert a brand-new user whose profile clones an existing one: it
	// must surface in sharded search results.
	newID := uint64(n + 100)
	profile := ds.Profiles[3]
	if err := dyn.Insert(newID, profile); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	matches, partial, err := dyn.Search(profile, 10, 0)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if partial {
		t.Fatal("unexpected partial result")
	}
	found := false
	for _, m := range matches {
		if m.ID == newID {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted user %d not in matches %v", newID, matches)
	}

	if err := dyn.Delete(newID, profile); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	matches, _, err = dyn.Search(profile, 10, 0)
	if err != nil {
		t.Fatalf("Search after delete: %v", err)
	}
	for _, m := range matches {
		if m.ID == newID {
			t.Fatalf("deleted user %d still in matches", newID)
		}
	}
}

// TestInsertToDeadShardErrors checks the issue's failure contract for
// updates: an insert routed to an unreachable owning shard fails loudly
// instead of landing elsewhere.
func TestInsertToDeadShardErrors(t *testing.T) {
	const n, shards = 160, 2

	f := testFrontend(t, "shard-dyn-dead")
	uploads, ds := testUploads(t, f, n)
	dynShards, err := f.BuildShardedDynamicIndex(uploads, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]frontend.DynNode, shards)
	servers := make([]*transport.Server, shards)
	poolNodes := make([]Node, shards)
	for s := range nodes {
		srv := transport.NewServer(cloud.New())
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[s] = srv
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		remote := NewRemote(addr)
		t.Cleanup(func() { remote.Close() })
		nodes[s] = remote
		poolNodes[s] = remote
	}
	pool, err := NewPool(DefaultConfig(), poolNodes...)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range dynShards {
		if err := pool.InstallDynShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatal(err)
		}
	}

	newID := uint64(n + 50)
	dead := pool.Owner(newID)
	shutdownServer(t, servers[dead])

	dyn := uncachedDyn(t, f, dynShards, nodes, pool.Owner)
	err = dyn.Insert(newID, ds.Profiles[0])
	if err == nil {
		t.Fatal("insert to dead owning shard succeeded")
	}
	if !transport.IsConnError(err) {
		t.Fatalf("want connection-level error, got %v", err)
	}

	// A search over the remaining shard still works, flagged partial.
	_, partial, err := dyn.Search(ds.Profiles[0], 5, 0)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !partial {
		t.Fatal("expected partial dynamic search with a dead shard")
	}
}

// TestConcurrentFanoutAndInserts races concurrent fan-out queries (static
// pool SecRec and dynamic sharded search) against concurrent dynamic
// inserts. Run under -race this validates the locking story: per-shard
// DynClients, the pool, and the cloud servers are all shared.
func TestConcurrentFanoutAndInserts(t *testing.T) {
	const n, shards = 240, 4

	f := testFrontend(t, "shard-race")
	uploads, ds := testUploads(t, f, n)
	pool := localPool(t, f, uploads, shards)
	dynShards, dynNodes, dynPool := dynSetup(t, f, uploads, shards)

	queries, _ := ds.Queries(8, 21)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	static := uncached(t, f, pool)

	// Each worker drives its own serving path over the shared clients and
	// nodes, so no serving-path lock orders the workers.
	for w := 0; w < 4; w++ {
		dyn := uncachedDyn(t, f, dynShards, dynNodes, dynPool.Owner)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(w*6+i)%len(queries)]
				if _, _, err := static.Discover(context.Background(), q, 5, 0); err != nil {
					errCh <- fmt.Errorf("static worker %d: %w", w, err)
					return
				}
				if _, _, err := dyn.Search(q, 5, 0); err != nil {
					errCh <- fmt.Errorf("dyn search worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		dyn := uncachedDyn(t, f, dynShards, dynNodes, dynPool.Owner)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				id := uint64(n + 1 + w*100 + i)
				profile := ds.Profiles[(w*5+i)%len(ds.Profiles)]
				if err := dyn.Insert(id, profile); err != nil {
					errCh <- fmt.Errorf("insert worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
