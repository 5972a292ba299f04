package pisd_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/dataset"
	"pisd/internal/faultnet"
	"pisd/internal/frontend"
	"pisd/internal/lsh"
	"pisd/internal/shard"
	"pisd/internal/transport"
	"pisd/internal/vec"
)

// simSeeds returns the seed set the simulation runs, from the
// PISD_SIM_SEEDS environment variable ("1,2,3") or the default fixed set
// CI uses.
func simSeeds(t *testing.T) []int64 {
	env := os.Getenv("PISD_SIM_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, tok := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			t.Fatalf("PISD_SIM_SEEDS: bad seed %q: %v", tok, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// recordFailingSeed appends seed to the artifact file named by
// PISD_SIM_FAILURE_FILE (CI uploads it) and logs the repro command.
func recordFailingSeed(t *testing.T, seed int64) {
	t.Helper()
	recordFailingSeedFor(t, seed, "TestSimulationE2E")
}

// recordFailingSeedFor is recordFailingSeed with the repro command naming
// the suite that failed (the replication suite shares the artifact file).
func recordFailingSeedFor(t *testing.T, seed int64, test string) {
	t.Helper()
	t.Logf("REPRODUCE: PISD_SIM_SEEDS=%d go test -race -run '%s' .", seed, test)
	path := os.Getenv("PISD_SIM_FAILURE_FILE")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("failing-seed artifact: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "%d\n", seed)
}

// netListen binds an ephemeral loopback port for a simulated shard server.
func netListen(t *testing.T) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}

// simParams is everything one simulated world derives from its seed:
// population size, shard count, discovery depth and the fault schedule.
type simParams struct {
	seed   int64
	users  int
	shards int
	k      int
	plan   faultnet.Plan
}

func deriveSimParams(seed int64) simParams {
	rng := rand.New(rand.NewSource(seed))
	return simParams{
		seed:   seed,
		users:  120 + rng.Intn(80),
		shards: 2 + rng.Intn(3),
		k:      4 + rng.Intn(5),
		plan: faultnet.Plan{
			Seed:           seed,
			DialFailProb:   0.02,
			ReadFaultBytes: 8 << 10,
			ReadLatency:    2 * time.Millisecond,
			SlowReadBytes:  48,
			StallDelay:     250 * time.Millisecond,
			DropProb:       0.010 + 0.020*rng.Float64(),
			TruncateProb:   0.005 + 0.010*rng.Float64(),
			ResetProb:      0.005 + 0.010*rng.Float64(),
		},
	}
}

// isTransportFault reports whether err is an acceptable failure under
// injected faults: a connection-level fault (including wrapped injected
// dial/read/write errors and per-attempt timeouts) or a typed remote
// application error. Anything else — a decode of garbage surfacing as a
// different error type, a panic converted to a string — fails the run.
func isTransportFault(err error) bool {
	if transport.IsConnError(err) {
		return true
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return true
	}
	return errors.Is(err, faultnet.ErrInjected)
}

// staticWorld is one seeded static deployment: a sharded secure index
// served by real transport servers over TCP, dialed through the faultnet
// harness (one client peer and one server peer per shard), with the
// plaintext oracle replaying the build.
type staticWorld struct {
	t      *testing.T
	p      simParams
	net    *faultnet.Network
	f      *frontend.Frontend
	ds     *dataset.Dataset
	oracle *frontend.Oracle
	pool   *shard.Pool
	// serving is the uncached serving path over pool.
	serving *frontend.Serving
}

func clientPeer(s int) string { return fmt.Sprintf("shard%d", s) }
func serverPeer(s int) string { return fmt.Sprintf("srv-shard%d", s) }

// partitionShard cuts shard s off on both sides of its link.
func (w *staticWorld) partitionShard(s int) {
	w.net.Partition(clientPeer(s))
	w.net.Partition(serverPeer(s))
}

func (w *staticWorld) healShard(s int) {
	w.net.Heal(clientPeer(s))
	w.net.Heal(serverPeer(s))
}

// newStaticWorld builds the full deployment with faults disabled (setup
// must not flake), leaving the network armed for the phases to enable.
func newStaticWorld(t *testing.T, p simParams) *staticWorld {
	t.Helper()
	fn := faultnet.New(p.plan)
	fn.SetEnabled(false)

	f, err := frontend.New(frontend.Config{
		LSH:        lsh.Params{Dim: 64, Tables: 6, Atoms: 2, Width: 0.8, Seed: p.seed},
		LoadFactor: 0.8,
		ProbeRange: 5,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       p.seed,
		KeySeed:    fmt.Sprintf("sim-static-%d", p.seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{
		Users: p.users, Dim: 64, Topics: 10, TopicsPerUser: 2,
		ActiveWords: 16, Noise: 0.02, Seed: p.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]frontend.Upload, p.users)
	for i, prof := range ds.Profiles {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: prof, Meta: f.ComputeMeta(prof)}
	}
	built, err := f.BuildShardedIndex(uploads, p.shards, nil)
	if err != nil {
		t.Fatalf("BuildShardedIndex: %v", err)
	}
	oracle, err := f.BuildOracle(uploads)
	if err != nil {
		t.Fatalf("BuildOracle: %v", err)
	}

	nodes := make([]shard.Node, p.shards)
	for s := 0; s < p.shards; s++ {
		srv := transport.NewServer(cloud.New())
		ln, err := netListen(t)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(fn.WrapListener(serverPeer(s), ln)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		remote := shard.NewRemoteDialer(ln.Addr().String(), fn.Dialer(clientPeer(s)))
		t.Cleanup(func() { remote.Close() })
		nodes[s] = remote
	}
	pool, err := shard.NewPool(shard.Config{Timeout: 120 * time.Millisecond, Retries: 3}, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range built {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatalf("InstallShard(%d): %v", s, err)
		}
	}
	serving, err := f.NewServing(pool, frontend.ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &staticWorld{t: t, p: p, net: fn, f: f, ds: ds, oracle: oracle, pool: pool, serving: serving}
}

// checkQuery validates one discovery result against the oracle. A
// complete result must match the full-population reference exactly; a
// partial result must match the reference restricted to SOME strict,
// non-empty subset of shards — anything else means buckets or profiles
// were corrupted or leaked across queries.
func (w *staticWorld) checkQuery(target []float64, k int, exclude uint64, got []frontend.Match, partial bool) error {
	if !partial {
		return frontend.EqualMatches(got, w.oracle.Discover(target, k, exclude))
	}
	for _, mask := range w.partialMasks() {
		want := w.oracle.DiscoverOwned(target, k, exclude, w.aliveFn(mask))
		if frontend.EqualMatches(got, want) == nil {
			return nil
		}
	}
	return fmt.Errorf("partial result matches no healthy-shard subset: %v", got)
}

// checkBatch validates a batched result: complete batches match the full
// reference per query; a partial batch must be consistent with ONE common
// healthy-shard subset across all of its queries, because the pool skips
// a failed shard for the whole batch.
func (w *staticWorld) checkBatch(targets [][]float64, k int, excludes []uint64, got [][]frontend.Match, partial bool) error {
	if len(got) != len(targets) {
		return fmt.Errorf("batch of %d answered with %d results", len(targets), len(got))
	}
	exclude := func(q int) uint64 {
		if excludes == nil {
			return 0
		}
		return excludes[q]
	}
	if !partial {
		for q, target := range targets {
			if err := frontend.EqualMatches(got[q], w.oracle.Discover(target, k, exclude(q))); err != nil {
				return fmt.Errorf("batch query %d: %w", q, err)
			}
		}
		return nil
	}
masks:
	for _, mask := range w.partialMasks() {
		for q, target := range targets {
			want := w.oracle.DiscoverOwned(target, k, exclude(q), w.aliveFn(mask))
			if frontend.EqualMatches(got[q], want) != nil {
				continue masks
			}
		}
		return nil
	}
	return fmt.Errorf("partial batch matches no single healthy-shard subset")
}

// partialMasks enumerates every strict non-empty subset of shards as an
// alive bitmask.
func (w *staticWorld) partialMasks() []int {
	full := 1<<w.p.shards - 1
	masks := make([]int, 0, full-1)
	for m := 1; m < full; m++ {
		masks = append(masks, m)
	}
	return masks
}

// aliveFn maps an alive bitmask to the per-user filter the oracle wants,
// under the default id-mod-shards owner.
func (w *staticWorld) aliveFn(mask int) func(uint64) bool {
	shards := uint64(w.p.shards)
	return func(id uint64) bool { return mask&(1<<(id%shards)) != 0 }
}

// dynWorld is one seeded dynamic deployment: per-shard updatable indexes
// on real transport servers, dialed through the same kind of fault
// harness, with semantic membership tracking instead of a slot-exact
// mirror (dynamic placement depends on live kick rounds).
type dynWorld struct {
	t     *testing.T
	p     simParams
	net   *faultnet.Network
	f     *frontend.Frontend
	ds    *dataset.Dataset
	owner func(uint64) int
	// dyn is the uncached dynamic serving path over the shards.
	dyn *frontend.DynServing

	// Membership bookkeeping under faults. profiles holds every id ever
	// attempted; certain / uncertain / deleted partition what we know.
	// shaky marks shards where an update failed mid-protocol: a broken
	// kick chain there may legitimately lose users, so reachability is
	// not asserted for that shard's users (subset, distance and ghost
	// invariants still are).
	profiles  map[uint64][]float64
	certain   map[uint64]bool
	uncertain map[uint64]bool
	deleted   map[uint64]bool
	shaky     map[int]bool
	nextID    uint64
}

func dynClientPeer(s int) string { return fmt.Sprintf("dyn%d", s) }
func dynServerPeer(s int) string { return fmt.Sprintf("srv-dyn%d", s) }

func newDynWorld(t *testing.T, p simParams) *dynWorld {
	t.Helper()
	fn := faultnet.New(p.plan)
	fn.SetEnabled(false)

	users := 60 + int(p.seed%3)*10
	f, err := frontend.New(frontend.Config{
		LSH:        lsh.Params{Dim: 64, Tables: 5, Atoms: 2, Width: 0.8, Seed: p.seed + 1},
		LoadFactor: 0.6, // headroom: churn inserts beyond the initial set
		ProbeRange: 4,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       p.seed + 1,
		KeySeed:    fmt.Sprintf("sim-dyn-%d", p.seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{
		Users: users + 200, Dim: 64, Topics: 8, TopicsPerUser: 2,
		ActiveWords: 16, Noise: 0.02, Seed: p.seed + 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]frontend.Upload, users)
	for i := 0; i < users; i++ {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: ds.Profiles[i], Meta: f.ComputeMeta(ds.Profiles[i])}
	}
	built, err := f.BuildShardedDynamicIndex(uploads, p.shards, nil)
	if err != nil {
		t.Fatalf("BuildShardedDynamicIndex: %v", err)
	}

	w := &dynWorld{
		t: t, p: p, net: fn, f: f, ds: ds,
		owner:     func(id uint64) int { return int(id % uint64(p.shards)) },
		profiles:  make(map[uint64][]float64),
		certain:   make(map[uint64]bool),
		uncertain: make(map[uint64]bool),
		deleted:   make(map[uint64]bool),
		shaky:     make(map[int]bool),
		nextID:    uint64(users + 1),
	}
	for i := 0; i < users; i++ {
		id := uint64(i + 1)
		w.profiles[id] = ds.Profiles[i]
		w.certain[id] = true
	}

	nodes := make([]frontend.DynNode, p.shards)
	for s := 0; s < p.shards; s++ {
		srv := transport.NewServer(cloud.New())
		ln, err := netListen(t)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(fn.WrapListener(dynServerPeer(s), ln)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		remote := shard.NewRemoteDialer(ln.Addr().String(), fn.Dialer(dynClientPeer(s)))
		remote.SetTimeout(500 * time.Millisecond)
		t.Cleanup(func() { remote.Close() })
		if err := remote.InstallDynIndex(built[s].Index); err != nil {
			t.Fatalf("InstallDynIndex(%d): %v", s, err)
		}
		if err := remote.PutProfiles(built[s].EncProfiles); err != nil {
			t.Fatalf("PutProfiles(%d): %v", s, err)
		}
		nodes[s] = remote
	}
	if w.dyn, err = f.NewDynServing(built, nodes, w.owner, frontend.ServingConfig{}); err != nil {
		t.Fatal(err)
	}
	return w
}

// bigK is a discovery depth larger than the whole population, so top-k
// truncation never hides a candidate from an invariant check.
func (w *dynWorld) bigK() int { return len(w.profiles) + 32 }

// checkSearch validates one dynamic search result. Invariants that hold
// under any fault mix: no ghost ids (never-inserted or certainly-deleted
// users), exact distances against plaintext profiles, ascending order.
// When the result is complete (non-partial), wantID — if certain and on a
// non-shaky shard — must be present.
func (w *dynWorld) checkSearch(target []float64, got []frontend.Match, partial bool, wantID uint64) error {
	for i, m := range got {
		prof, known := w.profiles[m.ID]
		if !known {
			return fmt.Errorf("match %d: id %d was never inserted (cross-query leak?)", i, m.ID)
		}
		if w.deleted[m.ID] {
			return fmt.Errorf("match %d: id %d was deleted yet resurfaced", i, m.ID)
		}
		if want := vec.Distance(target, prof); m.Distance != want {
			return fmt.Errorf("match %d: id %d distance %v, want exactly %v", i, m.ID, m.Distance, want)
		}
		if i > 0 && got[i-1].Distance > m.Distance {
			return fmt.Errorf("matches not sorted at %d", i)
		}
	}
	if !partial && wantID != 0 && w.certain[wantID] && !w.shaky[w.owner(wantID)] {
		for _, m := range got {
			if m.ID == wantID {
				return nil
			}
		}
		return fmt.Errorf("certain user %d unreachable via its own profile", wantID)
	}
	return nil
}

// markUpdateFailed records the aftermath of a failed insert/delete for
// id: membership is unknown and the owning shard's kick chains may have
// lost users.
func (w *dynWorld) markUpdateFailed(id uint64) {
	w.uncertain[id] = true
	delete(w.certain, id)
	w.shaky[w.owner(id)] = true
}

// lostProfile reports whether err is a search's refusal of exactly the
// damage markUpdateFailed records: frontend.ErrUnknownProfile naming an
// id whose insert or delete failed under faults, so its index entry and
// its profile may have parted ways. It is for the churn-under-faults
// search site only; ErrUnknownProfile naming any other id — a mis-sliced
// answer, an empty FetchProfiles entry for a stored profile — stays fatal
// there, and any ErrUnknownProfile stays fatal everywhere else.
func (w *dynWorld) lostProfile(err error) bool {
	if !errors.Is(err, frontend.ErrUnknownProfile) {
		return false
	}
	msg := err.Error()
	id, perr := strconv.ParseUint(msg[strings.LastIndexByte(msg, ' ')+1:], 10, 64)
	return perr == nil && w.uncertain[id]
}

// pickCertain draws a certainly-live user deterministically from the
// seeded rng (map iteration order is runtime-randomized, so sort first).
// Returns 0 when none exist.
func (w *dynWorld) pickCertain(rng *rand.Rand) uint64 {
	if len(w.certain) == 0 {
		return 0
	}
	ids := make([]uint64, 0, len(w.certain))
	for id := range w.certain {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids[rng.Intn(len(ids))]
}
