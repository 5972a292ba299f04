package frontend

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/shard"
)

// poolNode presents a shard pool as one cloud node, so the routes that
// take a single BatchDiscoveryServer can be pointed at the multi-shard
// deployment too.
type poolNode struct{ pool *shard.Pool }

func (n poolNode) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	ids, profiles, _, err := n.pool.SecRecBatch(ctx, ts)
	return ids, profiles, err
}

// staticRoute is one static discovery entry point, shaped so a table can
// drive all of them alike.
type staticRoute struct {
	name      string
	total     string // end-to-end histogram the route feeds
	traced    bool   // the route takes a ctx, so it can carry a trace
	hit       bool   // every query must be answered from the result cache
	noExclude bool   // the route has no excludeID parameter
	run       func(ctx context.Context, targets [][]float64, k int, excludes []uint64) ([][]Match, error)
}

// staticDeployment is one static population served by in-process shards,
// with the plaintext oracle for it.
type staticDeployment struct {
	f        *Frontend
	profiles [][]float64
	pool     *shard.Pool
	oracle   *Oracle
}

func newStaticDeployment(t *testing.T, n, shards int) *staticDeployment {
	t.Helper()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	ups := uploadsFrom(ds, f)
	built, err := f.BuildShardedIndex(ups, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]shard.Node, shards)
	for s := range nodes {
		nodes[s] = shard.NewLocal(cloud.New())
	}
	pool, err := shard.NewPool(shard.DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range built {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatal(err)
		}
	}
	oracle, err := f.BuildOracle(ups)
	if err != nil {
		t.Fatal(err)
	}
	return &staticDeployment{f: f, profiles: ds.Profiles, pool: pool, oracle: oracle}
}

// uncached is the serving path with a zero config — no cache, no gate —
// over pool.
func uncached(t testing.TB, f *Frontend, pool FanoutBatchServer) *Serving {
	t.Helper()
	s, err := f.NewServing(pool, ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// uncachedDyn is the dynamic serving path with a zero config over shards
// paired with nodes, owned by core.DefaultOwner.
func uncachedDyn(t testing.TB, f *Frontend, shards []DynShard, nodes []DynNode) *DynServing {
	t.Helper()
	s, err := f.NewDynServing(shards, nodes, nil, ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// each lifts a single-query route to the table's batch shape.
func each(one func(target []float64, k int, exclude uint64) ([]Match, error)) func(context.Context, [][]float64, int, []uint64) ([][]Match, error) {
	return func(_ context.Context, targets [][]float64, k int, excludes []uint64) ([][]Match, error) {
		out := make([][]Match, len(targets))
		for q, target := range targets {
			var exclude uint64
			if excludes != nil {
				exclude = excludes[q]
			}
			m, err := one(target, k, exclude)
			if err != nil {
				return nil, fmt.Errorf("query %d: %w", q, err)
			}
			out[q] = m
		}
		return out, nil
	}
}

// routes lists every static entry point over the deployment. The two
// Serving rows share one fresh serving path and must run in order: the
// first fills the cache, the second may not reach the cloud.
func (d *staticDeployment) routes(t *testing.T) []staticRoute {
	t.Helper()
	f, node := d.f, poolNode{d.pool}
	cf := &countingFanout{inner: d.pool}
	serving, err := f.NewServing(cf, DefaultServingConfig())
	if err != nil {
		t.Fatal(err)
	}
	// eachCtx is each for the routes that take a ctx and report partial.
	eachCtx := func(one func(ctx context.Context, target []float64, k int, exclude uint64) ([]Match, bool, error)) func(context.Context, [][]float64, int, []uint64) ([][]Match, error) {
		return func(ctx context.Context, targets [][]float64, k int, excludes []uint64) ([][]Match, error) {
			return each(func(target []float64, k int, exclude uint64) ([]Match, error) {
				m, partial, err := one(ctx, target, k, exclude)
				if err == nil && partial {
					err = fmt.Errorf("partial result with every shard alive")
				}
				return m, err
			})(ctx, targets, k, excludes)
		}
	}
	served := eachCtx(serving.Discover)
	return []staticRoute{
		{name: "Discover", total: "frontend.discover",
			run: each(func(target []float64, k int, exclude uint64) ([]Match, error) {
				return f.Discover(node, target, k, exclude)
			})},
		{name: "Serving.Discover uncached", total: "frontend.discover", traced: true,
			run: eachCtx(uncached(t, f, d.pool).Discover)},
		{name: "DiscoverBatch", total: "frontend.discover_batch",
			run: func(_ context.Context, targets [][]float64, k int, excludes []uint64) ([][]Match, error) {
				return f.DiscoverBatch(node, targets, k, excludes)
			}},
		{name: "DiscoverShardedBatch", total: "frontend.discover_batch", traced: true,
			run: func(ctx context.Context, targets [][]float64, k int, excludes []uint64) ([][]Match, error) {
				m, partial, err := f.DiscoverShardedBatch(ctx, d.pool, targets, k, excludes)
				if err == nil && partial {
					err = fmt.Errorf("partial result with every shard alive")
				}
				return m, err
			}},
		{name: "Serving.Discover miss", total: "frontend.discover", traced: true, run: served},
		{name: "Serving.Discover hit", total: "frontend.discover", traced: true, hit: true,
			run: func(ctx context.Context, targets [][]float64, k int, excludes []uint64) ([][]Match, error) {
				before := cf.queries.Load()
				m, err := served(ctx, targets, k, excludes)
				if reached := cf.queries.Load() - before; err == nil && reached != 0 {
					err = fmt.Errorf("cache hits sent %d queries to the cloud", reached)
				}
				return m, err
			}},
		{name: "DiscoverMultiProbe(variants=0)", total: "frontend.discover",
			run: each(func(target []float64, k int, exclude uint64) ([]Match, error) {
				return f.DiscoverMultiProbe(node, target, k, exclude, 0)
			})},
		{name: "DiscoverWithDecoys(decoys=0)", total: "frontend.discover_batch", noExclude: true,
			run: func(_ context.Context, targets [][]float64, k int, _ []uint64) ([][]Match, error) {
				return f.DiscoverWithDecoys(node, targets, k, 0, rand.New(rand.NewSource(3)))
			}},
	}
}

// dynRoute is one dynamic discovery entry point.
type dynRoute struct {
	name string
	hit  bool // the query must be answered from the result cache
	run  func(target []float64, k int, exclude uint64) ([]Match, error)
}

// dynDeployment is one dynamic population served by in-process shards
// behind fetch-counting nodes.
type dynDeployment struct {
	f        *Frontend
	uploads  []Upload
	shards   []DynShard
	nodes    []DynNode
	counters []*countingNode
}

func newDynDeployment(t *testing.T, n, shards int) *dynDeployment {
	t.Helper()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ups := uploadsFrom(testPopulation(t, n), f)
	built, err := f.BuildShardedDynamicIndex(ups, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &dynDeployment{f: f, uploads: ups, shards: built,
		nodes: make([]DynNode, shards), counters: make([]*countingNode, shards)}
	for s, sh := range built {
		cs := cloud.New()
		cs.SetDynIndex(sh.Index)
		cs.PutProfiles(sh.EncProfiles)
		d.counters[s] = &countingNode{DynNode: shard.NewLocal(cs)}
		d.nodes[s] = d.counters[s]
	}
	return d
}

// serving builds a fresh cached serving path over the deployment.
func (d *dynDeployment) serving(t *testing.T) *DynServing {
	t.Helper()
	serv, err := d.f.NewDynServing(d.shards, d.nodes, nil, DefaultServingConfig())
	if err != nil {
		t.Fatal(err)
	}
	return serv
}

// routes lists every dynamic entry point over the deployment: an uncached
// serving path, then serv. The two rows on serv must run in order.
func (d *dynDeployment) routes(t *testing.T, serv *DynServing) []dynRoute {
	t.Helper()
	plain := uncachedDyn(t, d.f, d.shards, d.nodes)
	checked := func(m []Match, partial bool, err error) ([]Match, error) {
		if err == nil && partial {
			err = fmt.Errorf("partial result with every shard alive")
		}
		return m, err
	}
	return []dynRoute{
		{name: "DynServing.Search uncached",
			run: func(target []float64, k int, exclude uint64) ([]Match, error) {
				return checked(plain.Search(target, k, exclude))
			}},
		{name: "DynServing.Search miss",
			run: func(target []float64, k int, exclude uint64) ([]Match, error) {
				return checked(serv.Search(target, k, exclude))
			}},
		{name: "DynServing.Search hit", hit: true,
			run: func(target []float64, k int, exclude uint64) ([]Match, error) {
				before := totalFetches(d.counters)
				m, err := checked(serv.Search(target, k, exclude))
				if fetched := totalFetches(d.counters) - before; err == nil && fetched != 0 {
					err = fmt.Errorf("cache hit fetched %d buckets", fetched)
				}
				return m, err
			}},
	}
}

// TestRouteAgreement is the one-pipeline contract: over one deployment,
// every discovery entry point returns the plaintext oracle's ranking.
func TestRouteAgreement(t *testing.T) {
	const n, k, queries = 300, 7, 12
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("static/%d-shard", shards), func(t *testing.T) {
			d := newStaticDeployment(t, n, shards)
			targets := make([][]float64, queries)
			self := make([]uint64, queries)
			for q := range targets {
				self[q] = uint64(q*23%n + 1)
				targets[q] = d.profiles[self[q]-1]
			}
			for _, excludes := range [][]uint64{self, nil} {
				for _, r := range d.routes(t) {
					if excludes != nil && r.noExclude {
						continue
					}
					got, err := r.run(context.Background(), targets, k, excludes)
					if err != nil {
						t.Fatalf("%s: %v", r.name, err)
					}
					for q, target := range targets {
						var exclude uint64
						if excludes != nil {
							exclude = excludes[q]
						}
						if err := EqualMatches(got[q], d.oracle.Discover(target, k, exclude)); err != nil {
							t.Fatalf("%s query %d (exclude %d): %v", r.name, q, exclude, err)
						}
					}
				}
			}
		})

		t.Run(fmt.Sprintf("dynamic/%d-shard", shards), func(t *testing.T) {
			d := newDynDeployment(t, n, shards)
			oracle := d.f.NewDynOracle(d.uploads)
			serv := d.serving(t)
			serv.AttachSubscriptions(nil)
			plain := uncachedDyn(t, d.f, d.shards, d.nodes)
			for q := 0; q < queries; q++ {
				u := d.uploads[q*23%n]
				// The dynamic placement is not replayable in plaintext, so
				// the oracle ranks the full candidate set one uncached
				// search recovers; every route must agree with that.
				all, _, err := plain.Search(u.Profile, n+1, 0)
				if err != nil {
					t.Fatal(err)
				}
				cands := make([]uint64, len(all))
				for i, m := range all {
					cands[i] = m.ID
				}
				for _, exclude := range []uint64{u.ID, 0} {
					want, err := oracle.RankCandidates(u.Profile, cands, k, exclude)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range d.routes(t, serv) {
						got, err := r.run(u.Profile, k, exclude)
						if err != nil {
							t.Fatalf("%s query %d: %v", r.name, q, err)
						}
						if err := EqualMatches(got, want); err != nil {
							t.Fatalf("%s query %d (exclude %d): %v", r.name, q, exclude, err)
						}
					}
				}
				// The subscription seed set rides the same cached pattern
				// (self-excluding, like the first pass above).
				before := totalFetches(d.counters)
				entries, err := serv.Subscribe(u.ID, u.Profile, k)
				if err != nil {
					t.Fatalf("Subscribe %d: %v", u.ID, err)
				}
				if fetched := totalFetches(d.counters) - before; fetched != 0 {
					t.Fatalf("Subscribe %d seeded from the cloud (%d buckets) over a cached pattern", u.ID, fetched)
				}
				seed := make([]Match, len(entries))
				for i, e := range entries {
					seed[i] = Match{ID: e.ID, Distance: e.Distance}
				}
				want, err := oracle.RankCandidates(u.Profile, cands, k, u.ID)
				if err != nil {
					t.Fatal(err)
				}
				if err := EqualMatches(seed, want); err != nil {
					t.Fatalf("Subscribe %d seed set: %v", u.ID, err)
				}
			}
		})
	}
}
