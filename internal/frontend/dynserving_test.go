package frontend

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pisd/internal/core"
)

// countingNode counts the bucket fetches a dynamic search issues against
// one shard, so tests can assert a cache hit touched the cloud zero
// times.
type countingNode struct {
	DynNode
	fetches atomic.Int64
}

func (n *countingNode) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	n.fetches.Add(int64(len(refs)))
	return n.DynNode.FetchBuckets(refs)
}

// dynServingFixture builds a 2-shard dynamic deployment with counting
// nodes and the cached serving path over it.
func dynServingFixture(t *testing.T, n int) (*Frontend, []Upload, []DynShard, []DynNode, []*countingNode, *DynServing) {
	t.Helper()
	d := newDynDeployment(t, n, 2)
	serv, err := d.f.NewDynServing(d.shards, d.nodes, nil, ServingConfig{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	return d.f, d.uploads, d.shards, d.nodes, d.counters, serv
}

func totalFetches(counters []*countingNode) int64 {
	var n int64
	for _, c := range counters {
		n += c.fetches.Load()
	}
	return n
}

// TestDynServingCacheHitSkipsCloud pins the dynamic cache's core
// property: a repeated search fetches ZERO buckets from any shard and
// returns byte-identical matches.
func TestDynServingCacheHitSkipsCloud(t *testing.T) {
	const n, k = 300, 5
	_, ups, _, _, counters, serv := dynServingFixture(t, n)

	first, partial, err := serv.Search(ups[3].Profile, k, ups[3].ID)
	if err != nil || partial {
		t.Fatalf("first search: partial=%v err=%v", partial, err)
	}
	base := totalFetches(counters)
	if base == 0 {
		t.Fatal("first search fetched no buckets")
	}
	second, partial, err := serv.Search(ups[3].Profile, k, ups[3].ID)
	if err != nil || partial {
		t.Fatalf("second search: partial=%v err=%v", partial, err)
	}
	if got := totalFetches(counters); got != base {
		t.Fatalf("cache hit fetched %d buckets, want 0", got-base)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result diverged:\n got %v\nwant %v", second, first)
	}
}

// TestDynServingChurnInvalidation is the stale-hit test: prime the cache
// with searches whose answers an insert and a delete then outdate, churn,
// and assert the next searches reflect the new state exactly — matching
// both a fresh uncached sharded search and the plaintext oracle. A cache
// that missed an invalidation fails this by replaying the pre-churn
// candidate set.
func TestDynServingChurnInvalidation(t *testing.T) {
	const n, k = 300, 5
	f, ups, shards, nodes, _, serv := dynServingFixture(t, n)
	oracle := f.NewDynOracle(ups)

	// --- Insert invalidates ---
	newID := uint64(n + 1)
	// A profile similar to user 8's lands in (a superset of) the buckets
	// user 8's own searches address.
	newProfile := ups[7].Profile

	// Prime the cache with the exact pattern the insert will touch.
	before, partial, err := serv.Search(newProfile, k, 0)
	if err != nil || partial {
		t.Fatalf("pre-insert search: partial=%v err=%v", partial, err)
	}
	for _, m := range before {
		if m.ID == newID {
			t.Fatalf("user %d present before insertion", newID)
		}
	}
	if err := serv.Insert(newID, newProfile); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	oracle.PutProfile(newID, newProfile)

	got, partial, err := serv.Search(newProfile, k, 0)
	if err != nil || partial {
		t.Fatalf("post-insert search: partial=%v err=%v", partial, err)
	}
	if len(got) == 0 || got[0].ID != newID {
		t.Fatalf("stale hit: inserted user %d not the top match of its own profile: %v", newID, got)
	}
	plain := uncachedDyn(t, f, shards, nodes)
	want, partial, err := plain.Search(newProfile, k, 0)
	if err != nil || partial {
		t.Fatalf("fresh post-insert search: partial=%v err=%v", partial, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-insert cached path diverged from fresh search:\n got %v\nwant %v", got, want)
	}

	// --- Delete invalidates ---
	victim := ups[12]
	pre, partial, err := serv.Search(victim.Profile, k, 0)
	if err != nil || partial {
		t.Fatalf("pre-delete search: partial=%v err=%v", partial, err)
	}
	if len(pre) == 0 || pre[0].ID != victim.ID {
		t.Fatalf("victim %d not top match of its own profile before deletion: %v", victim.ID, pre)
	}
	if err := serv.Delete(victim.ID, victim.Profile); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	oracle.RemoveProfile(victim.ID)

	got, partial, err = serv.Search(victim.Profile, k, 0)
	if err != nil || partial {
		t.Fatalf("post-delete search: partial=%v err=%v", partial, err)
	}
	for _, m := range got {
		if m.ID == victim.ID {
			t.Fatalf("stale hit: deleted user %d still recommended: %v", victim.ID, got)
		}
	}
	want, partial, err = plain.Search(victim.Profile, k, 0)
	if err != nil || partial {
		t.Fatalf("fresh post-delete search: partial=%v err=%v", partial, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-delete cached path diverged from fresh search:\n got %v\nwant %v", got, want)
	}

	// The oracle agrees with the surviving ranking (ties reordered
	// freely): re-rank the secure search's own candidates in plaintext.
	ids := make([]uint64, len(got))
	for i, m := range got {
		ids[i] = m.ID
	}
	ref, err := oracle.RankCandidates(victim.Profile, ids, len(got), 0)
	if err != nil {
		t.Fatalf("oracle rank: %v", err)
	}
	if err := EqualMatches(got, ref); err != nil {
		t.Fatalf("post-churn ranking disagrees with oracle: %v", err)
	}
}

// TestRescoreThroughDecoratedNodes: the gap-tolerant profile read is the
// DynNode contract itself, not an optional extra a decorator can hide. The
// fixture's nodes are wrapped in countingNode, which embeds DynNode; a
// candidate whose profile vanished behind the manager's back is dropped
// and the rest of the pass succeeds.
func TestRescoreThroughDecoratedNodes(t *testing.T) {
	_, ups, _, nodes, _, serv := dynServingFixture(t, 300)
	mgr := serv.AttachSubscriptions(nil)
	sub := ups[3]
	standing, err := serv.Subscribe(sub.ID, sub.Profile, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(standing) < 2 {
		t.Fatalf("standing result of %d entries cannot lose one", len(standing))
	}
	victim := standing[0].ID
	if err := nodes[core.DefaultOwner(len(nodes))(victim)].DeleteProfile(victim); err != nil {
		t.Fatal(err)
	}

	changed, err := serv.RescoreSubscriptions()
	if err != nil {
		t.Fatalf("rescore with one candidate deleted group-wide: %v", err)
	}
	if changed == 0 {
		t.Fatal("rescore corrected no candidate")
	}
	for _, id := range mgr.CandidateIDs() {
		if id == victim {
			t.Fatalf("deleted candidate %d still standing", victim)
		}
	}
	if top, _ := mgr.TopK(sub.ID); len(top) == 0 || top[0].ID != standing[1].ID {
		t.Fatalf("runner-up %d not promoted: top %v", standing[1].ID, top)
	}
}

// TestDynServingConcurrentHeldSet runs concurrent searches through a cache
// of four entries — four held legs, so the held set turns over on almost
// every miss while other misses read it — between serial inserts and
// deletes. Every answer must equal the uncached sharded search over the
// same state, and the profile table's invariants must hold after each
// concurrent phase.
func TestDynServingConcurrentHeldSet(t *testing.T) {
	const n, k, targets, workers = 300, 5, 40, 4
	d := newDynDeployment(t, n, 2)
	serv, err := d.f.NewDynServing(d.shards, d.nodes, nil, ServingConfig{CacheEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	ups := d.uploads
	plain := uncachedDyn(t, d.f, d.shards, d.nodes)
	phase := func(name string) {
		t.Helper()
		want := make([][]Match, targets)
		for i := range want {
			if want[i], _, err = plain.Search(ups[i].Profile, k, ups[i].ID); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 2*targets; r++ {
					i := (r*(g+1) + g) % targets
					got, partial, err := serv.Search(ups[i].Profile, k, ups[i].ID)
					if err != nil || partial {
						t.Errorf("%s: worker %d target %d: partial=%v err=%v", name, g, i, partial, err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("%s: worker %d target %d: got %v, want %v", name, g, i, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		checkProfileTable(t, serv.Cache())
	}

	phase("before churn")
	if err := serv.Insert(n+1, ups[7].Profile); err != nil {
		t.Fatal(err)
	}
	if err := serv.Delete(ups[12].ID, ups[12].Profile); err != nil {
		t.Fatal(err)
	}
	phase("after churn")
}

// TestNewDynServingRejectsUnpairedShards: the shard/node pairing and every
// shard's client are checked once, at construction, so a search can never
// reach a shard it cannot serve.
func TestNewDynServingRejectsUnpairedShards(t *testing.T) {
	d := newDynDeployment(t, 40, 2)
	if _, err := d.f.NewDynServing([]DynShard{{}}, d.nodes[:1], nil, ServingConfig{}); err == nil {
		t.Fatal("shard without a dynamic client accepted")
	}
	if _, err := d.f.NewDynServing(d.shards, d.nodes[:1], nil, ServingConfig{}); err == nil {
		t.Fatal("2 shards over 1 node accepted")
	}
	if _, err := d.f.NewDynServing(nil, nil, nil, ServingConfig{}); err == nil {
		t.Fatal("empty deployment accepted")
	}
}
