package frontend

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/dataset"
	"pisd/internal/faultnet"
	"pisd/internal/shard"
	"pisd/internal/transport"
)

// servingFixture builds a 2-shard local deployment and returns the
// frontend, the shard pool and the population's profiles.
func servingFixture(t *testing.T, n int) (*Frontend, *shard.Pool, [][]float64) {
	t.Helper()
	d := newStaticDeployment(t, n, 2)
	return d.f, d.pool, d.profiles
}

// discoverConcurrently issues every target through serving at once and
// fails the test on any error or partial result.
func discoverConcurrently(t *testing.T, serving *Serving, targets [][]float64, k int, excludes []uint64) [][]Match {
	t.Helper()
	got := make([][]Match, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, partial, err := serving.Discover(context.Background(), targets[i], k, excludes[i])
			if err == nil && partial {
				err = errors.New("partial result with all shards alive")
			}
			got[i], errs[i] = m, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	return got
}

// TestServingConcurrentEquivalence is the serving path's headline
// contract: concurrent Discover calls, each its own batch-of-one exchange
// over the shared pool, return byte-identical matches to serial uncached
// discoveries. Runs with the cache disabled so every call actually
// reaches the fan-out; `go test -race` makes this double as the serving
// path's concurrency check.
func TestServingConcurrentEquivalence(t *testing.T) {
	const n, k, queries = 400, 7, 24
	f, pool, profiles := servingFixture(t, n)

	targets := make([][]float64, queries)
	excludes := make([]uint64, queries)
	for i := range targets {
		id := uint64(i*16 + 1)
		targets[i] = profiles[id-1]
		excludes[i] = id
	}
	want := make([][]Match, queries)
	plain := uncached(t, f, pool)
	for i := range targets {
		m, partial, err := plain.Discover(context.Background(), targets[i], k, excludes[i])
		if err != nil || partial {
			t.Fatalf("serial discover %d: partial=%v err=%v", i, partial, err)
		}
		want[i] = m
	}

	serving, err := f.NewServing(pool, ServingConfig{CacheEntries: 0})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got := discoverConcurrently(t, serving, targets, k, excludes)
		for i := range targets {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d query %d: concurrent result diverged from serial:\n got %v\nwant %v",
					round, i, got[i], want[i])
			}
		}
	}
}

// remoteFixture builds an S-shard static deployment served over real TCP:
// shard s's Remote dials through fn as peer "client<s>" over conns pooled
// connections, and its server listens behind fn as "server<s>". Injection
// is off for the install and left off; callers enable it.
func remoteFixture(t *testing.T, fn *faultnet.Network, n, shards, conns int) (*Frontend, *shard.Pool, *dataset.Dataset) {
	t.Helper()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	built, err := f.BuildShardedIndex(uploadsFrom(ds, f), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]shard.Node, shards)
	for s := range nodes {
		srv := transport.NewServer(cloud.New())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(fn.WrapListener(fmt.Sprintf("server%d", s), ln)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		r := shard.NewRemoteDialer(ln.Addr().String(), fn.Dialer(fmt.Sprintf("client%d", s)))
		r.SetConns(conns)
		t.Cleanup(func() { r.Close() })
		nodes[s] = r
	}
	pool, err := shard.NewPool(shard.DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	fn.SetEnabled(false) // clean install phase
	for s, sh := range built {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatal(err)
		}
	}
	return f, pool, ds
}

// TestServingConcurrentEquivalenceFaultyLatency repeats the equivalence
// check over real TCP transports whose reads suffer seeded injected
// latency: slow shards delay the concurrent exchanges but must not change
// a single byte of any result, and latency alone must never flag partial.
func TestServingConcurrentEquivalenceFaultyLatency(t *testing.T) {
	const n, k, queries = 240, 5, 10
	fn := faultnet.New(faultnet.Plan{
		Seed:           13,
		ReadFaultBytes: 4096,
		ReadLatency:    2 * time.Millisecond,
	})
	f, pool, ds := remoteFixture(t, fn, n, 2, 2)

	targets, _ := ds.Queries(queries, 3)
	want := make([][]Match, queries)
	plain := uncached(t, f, pool)
	for i, q := range targets {
		m, partial, err := plain.Discover(context.Background(), q, k, 0)
		if err != nil || partial {
			t.Fatalf("clean serial discover %d: partial=%v err=%v", i, partial, err)
		}
		want[i] = m
	}

	fn.SetEnabled(true) // latency on for the concurrent run
	serving, err := f.NewServing(pool, ServingConfig{CacheEntries: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := discoverConcurrently(t, serving, targets, k, make([]uint64, queries))
	for i := range targets {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d: result diverged under injected latency", i)
		}
	}
}

// TestServingDiscoverHonoursContext pins that the caller's context reaches
// the wire: with the shard's response stream stalled once (faultnet), a
// Discover under a 50 ms deadline returns context.DeadlineExceeded inside
// twice that, the stalled connection survives to serve the next discovery
// (the late response is dropped by request ID), and no goroutine outlives
// the abandoned call.
func TestServingDiscoverHonoursContext(t *testing.T) {
	const deadline, stall = 50 * time.Millisecond, 400 * time.Millisecond
	fn := faultnet.New(faultnet.Plan{Seed: 7, ReadFaultBytes: 1, StallDelay: stall})
	f, pool, ds := remoteFixture(t, fn, 120, 1, 1)
	remote := pool.Node(0).(*shard.Remote)
	serving, err := f.NewServing(pool, ServingConfig{CacheEntries: 0})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := serving.Discover(context.Background(), ds.Profiles[0], 5, 1)
	if err != nil {
		t.Fatalf("clean discover: %v", err)
	}
	baseline := runtime.NumGoroutine()
	_, recvBefore := remote.Traffic()

	// Arm the one-shot stall: the connection's reader delivers the ping's
	// answer, then sleeps through its next read.
	fn.SetEnabled(true)
	if err := pool.Ping(context.Background())[0]; err != nil {
		t.Fatalf("arming ping: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err = serving.Discover(ctx, ds.Profiles[0], 5, 1)
	if took := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || took > 2*deadline {
		t.Fatalf("stalled discover returned %v after %s, want context.DeadlineExceeded inside %s", err, took, 2*deadline)
	}

	// Same connection, next discovery: queued behind the stall, then served.
	got, partial, err := serving.Discover(context.Background(), ds.Profiles[0], 5, 1)
	if err != nil || partial {
		t.Fatalf("discover after the stall: partial=%v err=%v", partial, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("discover after the stall diverged:\n got %v\nwant %v", got, want)
	}
	// Traffic sums live connections only: had the stalled one been dropped
	// and redialed, the received total would have restarted from zero.
	if _, recv := remote.Traffic(); remote.LiveConns() != 1 || recv <= recvBefore {
		t.Fatalf("stalled connection did not survive: %d live conns, %d B received (was %d)", remote.LiveConns(), recv, recvBefore)
	}
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(wait) {
			t.Fatalf("%d goroutines after the abandoned call, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingFanout counts SecRecBatch flushes and queries reaching the
// cloud tier.
type countingFanout struct {
	inner   FanoutBatchServer
	flushes atomic.Int64
	queries atomic.Int64
}

func (c *countingFanout) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	c.flushes.Add(1)
	c.queries.Add(int64(len(ts)))
	return c.inner.SecRecBatch(ctx, ts)
}

// TestServingCacheSkipsCloud pins the cache's core property: a repeated
// search pattern is answered with ZERO queries reaching the cloud tier,
// and byte-identical matches.
func TestServingCacheSkipsCloud(t *testing.T) {
	const n, k = 400, 5
	f, pool, profiles := servingFixture(t, n)
	cf := &countingFanout{inner: pool}
	serving, err := f.NewServing(cf, ServingConfig{CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}

	first, partial, err := serving.Discover(context.Background(), profiles[0], k, 1)
	if err != nil || partial {
		t.Fatalf("first discover: partial=%v err=%v", partial, err)
	}
	if got := cf.queries.Load(); got != 1 {
		t.Fatalf("first discover reached the cloud %d times, want 1", got)
	}
	second, partial, err := serving.Discover(context.Background(), profiles[0], k, 1)
	if err != nil || partial {
		t.Fatalf("second discover: partial=%v err=%v", partial, err)
	}
	if got := cf.queries.Load(); got != 1 {
		t.Fatalf("cache hit reached the cloud: %d queries, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result diverged:\n got %v\nwant %v", second, first)
	}
	// Different k over the same pattern still hits (the cache stores the
	// pre-rank candidate set).
	if _, _, err := serving.Discover(context.Background(), profiles[0], k+3, 1); err != nil {
		t.Fatal(err)
	}
	if got := cf.queries.Load(); got != 1 {
		t.Fatalf("k-variant over cached pattern reached the cloud: %d queries, want 1", got)
	}
	// A different target misses.
	if _, _, err := serving.Discover(context.Background(), profiles[9], k, 10); err != nil {
		t.Fatal(err)
	}
	if got := cf.queries.Load(); got != 2 {
		t.Fatalf("distinct pattern should miss: %d queries, want 2", got)
	}
}

// blockingFanout parks every flush until released.
type blockingFanout struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingFanout) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	b.entered <- struct{}{}
	<-b.release
	return make([][]uint64, len(ts)), make([][][]byte, len(ts)), false, nil
}

// TestServingAdmissionRejects pins the backpressure contract: once
// MaxInflight discoveries are admitted, the next call fails fast with
// ErrOverloaded instead of queueing, and admitted calls complete
// unharmed.
func TestServingAdmissionRejects(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 120)
	if _, err := f.BuildShardedIndex(uploadsFrom(ds, f), 1, nil); err != nil {
		t.Fatal(err)
	}
	bf := &blockingFanout{entered: make(chan struct{}, 4), release: make(chan struct{})}
	serving, err := f.NewServing(bf, ServingConfig{MaxInflight: 2, CacheEntries: 0})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = serving.Discover(context.Background(), ds.Profiles[i], 3, 0)
		}(i)
	}
	// Wait until both admitted calls are parked inside the fan-out.
	<-bf.entered
	<-bf.entered

	if _, _, err := serving.Discover(context.Background(), ds.Profiles[5], 3, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third concurrent discover: got %v, want ErrOverloaded", err)
	}

	close(bf.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted discover %d failed: %v", i, err)
		}
	}
	// Slots returned: the gate admits again.
	if _, _, err := serving.Discover(context.Background(), ds.Profiles[6], 3, 0); err != nil {
		t.Fatalf("discover after release: %v", err)
	}
}
