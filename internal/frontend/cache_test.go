package frontend

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/dataset"
	"pisd/internal/obs"
	"pisd/internal/shard"
	"pisd/internal/transport"
)

// The plaintext profile table under the result cache (DESIGN.md §15.1): one
// vector per distinct ciphertext tag, reference-counted by the entries that
// list it. These tests pin the table's invariants under every way an entry
// comes and goes, and the decrypt step's accounting over it.

func counter(name string) int64 { return obs.Default.Counter(name).Load() }

// checkProfileTable asserts the table invariants on c: its keys are exactly
// the tags live answers and held-set ids list, each refcount is the number
// of those listings, every live entry vector is pointer-identical to the
// table's, live answers fit the bound, the held set keeps at most the
// bound's worth of legs in receipt order and each held id names a kept leg
// that carried it, and the entry maps agree with the LRU. It returns the
// live key set.
func checkProfileTable(t *testing.T, c *ResultCache) map[CacheKey]bool {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() != len(c.entries) || c.lru.Len() > c.cap {
		t.Fatalf("lru holds %d entries, key map %d, bound %d", c.lru.Len(), len(c.entries), c.cap)
	}
	live := make(map[CacheKey]bool)
	refs := make(map[profileTag]int)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		live[e.key] = true
		if e.el != el || c.entries[e.key] != el {
			t.Fatalf("entry %x: not the key map's element", e.key[:4])
		}
		if len(e.tags) != len(e.vecs) || len(e.ids) != len(e.vecs) {
			t.Fatalf("entry %x: %d ids, %d tags, %d vecs", e.key[:4], len(e.ids), len(e.tags), len(e.vecs))
		}
		for i, tag := range e.tags {
			refs[tag]++
			h := c.profiles[tag]
			if h == nil {
				t.Fatalf("entry %x candidate %d: tag %x not in the table", e.key[:4], i, tag[:4])
			}
			if len(h.vec) == 0 || &e.vecs[i][0] != &h.vec[0] {
				t.Fatalf("entry %x candidate %d: private copy, not the table's vector", e.key[:4], i)
			}
		}
	}
	if len(c.legs) > c.cap {
		t.Fatalf("held set keeps %d legs, bound %d", len(c.legs), c.cap)
	}
	carried := make(map[uint64]map[uint64]bool) // leg seq → ids it carried
	for i, leg := range c.legs {
		if len(leg.ids) == 0 || (i > 0 && leg.seq <= c.legs[i-1].seq) || leg.seq > c.legSeq {
			t.Fatalf("held leg %d: seq %d after %d of %d, %d ids", i, leg.seq, c.legs[max(i-1, 0)].seq, c.legSeq, len(leg.ids))
		}
		carried[leg.seq] = make(map[uint64]bool)
		for _, id := range leg.ids {
			carried[leg.seq][id] = true
		}
	}
	for id, h := range c.holds {
		if !carried[h.leg][id] {
			t.Fatalf("held id %d names leg %d, which is not kept or did not carry it", id, h.leg)
		}
		if c.profiles[h.tag] == nil {
			t.Fatalf("held id %d: tag %x not in the table", id, h.tag[:4])
		}
		refs[h.tag]++
	}
	if len(c.profiles) != len(refs) {
		t.Fatalf("table holds %d profiles, listings reference %d", len(c.profiles), len(refs))
	}
	for tag, h := range c.profiles {
		if h.refs != refs[tag] {
			t.Fatalf("tag %x: refcount %d, referenced %d times", tag[:4], h.refs, refs[tag])
		}
	}
	return live
}

// modelEntry is the reference model's view of one live cache answer.
type modelEntry struct {
	key  CacheKey
	refs []core.BucketRef
	ids  []uint64
}

// modelLeg is the reference model's view of one held-set leg.
type modelLeg struct {
	seq int
	ids []uint64
}

// modelHold is the reference model's view of one held id: the ciphertext
// version it carries and the leg that last carried it.
type modelHold struct {
	ct, leg int
}

// profileTableModel drives one seeded sequence of Put (fresh key, replace
// in place, eviction), Get, InvalidateRefs, hold (a profile leg: a fetch
// answer, or a put carrying a re-inserted id's new ciphertext), forget (a
// deleted user) and Flush against a small cache and a slice-backed
// reference — a live LRU and a FIFO of held legs — checking the table
// invariants, the live key set and the held set after every operation.
func profileTableModel(t *testing.T, seed int64, ops int) {
	const bound, keys, pool, buckets = 6, 14, 12, 9
	rng := rand.New(rand.NewSource(seed))
	c := NewResultCache(bound)
	heldBase := fmet.profHeld.Load()
	var model []modelEntry // front = most recently used
	var legs []modelLeg    // front = oldest
	holds := make(map[uint64]modelHold)
	legSeq := 0

	// Ciphertext p is all padding but its tag, which is all the table reads.
	// Id p+1 carries ciphertext p, or p+pool once re-inserted.
	cts := make([][]byte, 2*pool)
	for p := range cts {
		cts[p] = make([]byte, crypt.Overhead+8)
		cts[p][len(cts[p])-1] = byte(p + 1)
	}
	tagOf := func(p int) profileTag {
		tag, _ := crypt.Tag(cts[p])
		return tag
	}
	drop := func(keep func(modelEntry) bool) (dropped []modelEntry) {
		kept := model[:0]
		for _, m := range model {
			if keep(m) {
				kept = append(kept, m)
			} else {
				dropped = append(dropped, m)
			}
		}
		model = kept
		return dropped
	}

	for op := 0; op < ops; op++ {
		var key CacheKey
		key[0] = byte(rng.Intn(keys))
		switch u := rng.Intn(112); {
		case u < 55: // Put: one answer of 1..5 candidates, some repeated
			n := 1 + rng.Intn(5)
			ids := make([]uint64, n)
			enc := make([][]byte, n)
			for i := range enc {
				p := rng.Intn(pool)
				ids[i], enc[i] = uint64(p+1), cts[p]
			}
			vecs := make([][]float64, n)
			tags := make([]profileTag, n)
			reused := c.held(enc, tags, vecs)
			for i := range vecs {
				known := c.profiles[tags[i]] != nil
				if (vecs[i] != nil) != known {
					t.Fatalf("op %d: held filled=%v for a tag the table holds=%v", op, vecs[i] != nil, known)
				}
				if known {
					reused--
				}
				if !known || rng.Intn(4) == 0 {
					// An unseen tag, or a racing decrypt of a seen one: Put
					// must adopt the table's copy over this private one.
					vecs[i] = []float64{float64(ids[i])}
				}
			}
			if reused != 0 {
				t.Fatalf("op %d: held miscounted its reuses by %d", op, reused)
			}
			var refs []core.BucketRef
			for r := rng.Intn(3); r > 0; r-- {
				refs = append(refs, core.BucketRef{Table: 0, Pos: uint64(rng.Intn(buckets))})
			}
			c.Put(key, refs, ids, tags, vecs)
			drop(func(m modelEntry) bool { return m.key != key })
			model = append([]modelEntry{{key: key, refs: refs, ids: slices.Clone(ids)}}, model...)
			if len(model) > bound {
				model = model[:bound]
			}
		case u < 72: // Get promotes
			_, _, ok := c.Get(key)
			at := -1
			for i, m := range model {
				if m.key == key {
					at = i
				}
			}
			if ok != (at >= 0) {
				t.Fatalf("op %d: Get hit=%v, model holds the key=%v", op, ok, at >= 0)
			}
			if at >= 0 {
				m := model[at]
				copy(model[1:at+1], model[:at])
				model[0] = m
			}
		case u < 89: // InvalidateRefs over 1..2 written buckets
			written := []core.BucketRef{{Table: 0, Pos: uint64(rng.Intn(buckets))}}
			if rng.Intn(2) == 0 {
				written = append(written, core.BucketRef{Table: 0, Pos: uint64(rng.Intn(buckets))})
			}
			hit := drop(func(m modelEntry) bool {
				for _, r := range m.refs {
					for _, w := range written {
						if r == w {
							return false
						}
					}
				}
				return true
			})
			if got := c.InvalidateRefs(written); got != len(hit) {
				t.Fatalf("op %d: InvalidateRefs dropped %d entries, model %d", op, got, len(hit))
			}
		case u < 98: // a deleted user: its held listing is released
			id := uint64(1 + rng.Intn(pool))
			c.forget(id)
			delete(holds, id)
		case u < 110: // hold: a leg of 1..4 distinct ids, some under a new ciphertext, some elided
			var ids, carried []uint64
			var enc [][]byte
			var tags []profileTag
			var vecs [][]float64
			var versions []int
			for n := 1 + rng.Intn(4); len(ids) < n; {
				p := rng.Intn(pool)
				if slices.Contains(ids, uint64(p+1)) {
					continue
				}
				if rng.Intn(3) == 0 {
					p += pool
				}
				ids = append(ids, uint64(p%pool+1))
				if rng.Intn(4) == 0 {
					// Answered from the held set: no ciphertext crossed.
					enc, tags, vecs = append(enc, nil), append(tags, profileTag{}), append(vecs, nil)
				} else {
					enc, tags, vecs = append(enc, cts[p]), append(tags, tagOf(p)), append(vecs, []float64{float64(p)})
					carried = append(carried, ids[len(ids)-1])
				}
				versions = append(versions, p)
			}
			c.hold(ids, enc, tags, vecs)
			if len(carried) == 0 {
				break
			}
			legSeq++
			for i, id := range ids {
				if enc[i] != nil {
					holds[id] = modelHold{ct: versions[i], leg: legSeq}
				}
			}
			legs = append(legs, modelLeg{seq: legSeq, ids: carried})
			if len(legs) > bound {
				for _, id := range legs[0].ids {
					if holds[id].leg == legs[0].seq {
						delete(holds, id)
					}
				}
				legs = legs[1:]
			}
		default:
			c.Flush()
			model, legs = nil, nil
			clear(holds)
		}

		live := checkProfileTable(t, c)
		if len(live) != len(model) {
			t.Fatalf("op %d: cache holds %d entries, model %d", op, len(live), len(model))
		}
		for _, m := range model {
			if !live[m.key] {
				t.Fatalf("op %d: key %d live in the model, absent from the cache", op, m.key[0])
			}
		}
		c.mu.Lock()
		if len(c.legs) != len(legs) || len(c.holds) != len(holds) {
			t.Fatalf("op %d: held set keeps %d legs over %d ids, model %d legs over %d ids", op, len(c.legs), len(c.holds), len(legs), len(holds))
		}
		for i, leg := range legs {
			if !slices.Equal(c.legs[i].ids, leg.ids) {
				t.Fatalf("op %d: held leg %d carries %v, model %v", op, i, c.legs[i].ids, leg.ids)
			}
		}
		for id, h := range holds {
			if got, ok := c.holds[id]; !ok || got.tag != tagOf(h.ct) {
				t.Fatalf("op %d: id %d held=%v, model holds it under ciphertext %d", op, id, ok, h.ct)
			}
		}
		c.mu.Unlock()
		if got := fmet.profHeld.Load() - heldBase; got != int64(len(c.profiles)) {
			t.Fatalf("op %d: frontend.profiles_held moved by %d, table holds %d", op, got, len(c.profiles))
		}
	}
	c.Flush()
	checkProfileTable(t, c)
	if len(c.profiles) != 0 || len(c.holds) != 0 || len(c.legs) != 0 || fmet.profHeld.Load() != heldBase {
		t.Fatalf("emptied cache still holds %d profiles and %d held ids over %d legs", len(c.profiles), len(c.holds), len(c.legs))
	}
}

// TestProfileTableModel runs the model-based sequence over a fixed seed
// set; each failure names its one-line repro.
func TestProfileTableModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 13, 21, 42, 99} {
		name := fmt.Sprintf("seed=%d", seed)
		t.Run(name, func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("repro: go test ./internal/frontend -run 'TestProfileTableModel/%s'", name)
				}
			}()
			profileTableModel(t, seed, 1200)
		})
	}
}

// auditDecrypts runs one cached discovery (op) whose cache entry lands
// under key, and checks the decrypt step's accounting against the table:
// exactly the candidates whose tag the table did not hold beforehand were
// decrypted, the rest reused — and a cache hit touched neither. It returns
// the tags decrypted.
func auditDecrypts(t *testing.T, c *ResultCache, key CacheKey, op func()) []profileTag {
	t.Helper()
	c.mu.Lock()
	heldBefore := make(map[profileTag]bool, len(c.profiles))
	for tag := range c.profiles {
		heldBefore[tag] = true
	}
	c.mu.Unlock()
	decrypted, reused := counter("frontend.profiles_decrypted"), counter("frontend.profiles_reused")
	hits := counter("frontend.cache_hits")
	op()
	decrypted, reused = counter("frontend.profiles_decrypted")-decrypted, counter("frontend.profiles_reused")-reused
	if counter("frontend.cache_hits") != hits {
		if decrypted != 0 || reused != 0 {
			t.Fatalf("cache hit decrypted %d and reused %d profiles", decrypted, reused)
		}
		return nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		t.Fatalf("discovery left no cache entry under its key")
	}
	tags := el.Value.(*cacheEntry).tags
	var fresh []profileTag
	for _, tag := range tags {
		if !heldBefore[tag] {
			fresh = append(fresh, tag)
		}
	}
	if int(decrypted) != len(fresh) || int(reused) != len(tags)-len(fresh) {
		t.Fatalf("%d candidates, %d unseen: decrypted %d, reused %d", len(tags), len(fresh), decrypted, reused)
	}
	return fresh
}

// TestServingSweepDecryptsOnce sweeps a Serving whose cache is a third of
// the target set, twice: every discovery is a cache miss, every answer must
// equal the cache-less Serving.Discover, and each miss decrypts exactly the
// profiles no live entry pins. The population is small enough that the
// live entries pin all of it once warm (static-sweep's steady state in
// miniature: 4096 entries × 28 candidates over 10 000 members), so the
// second sweep — all misses still — decrypts nothing.
func TestServingSweepDecryptsOnce(t *testing.T) {
	const n, k, entries = 40, 5, 8
	d := newStaticDeployment(t, n, 2)
	cf := &countingFanout{inner: d.pool}
	serving, err := d.f.NewServing(cf, ServingConfig{CacheEntries: entries})
	if err != nil {
		t.Fatal(err)
	}
	// 3×entries targets with pairwise distinct trapdoors, so no target hits
	// another's entry.
	var targets []uint64
	patterns := make(map[CacheKey]bool)
	for id := uint64(1); id <= n && len(targets) < 3*entries; id++ {
		td, err := d.f.Trapdoor(d.profiles[id-1])
		if err != nil {
			t.Fatal(err)
		}
		if key := trapdoorKey(td); !patterns[key] {
			patterns[key] = true
			targets = append(targets, id)
		}
	}
	if len(targets) != 3*entries {
		t.Fatalf("population has %d distinct search patterns, want %d", len(targets), 3*entries)
	}

	plain := uncached(t, d.f, d.pool)
	for sweep := 0; sweep < 2; sweep++ {
		decrypted := 0
		for _, id := range targets {
			profile := d.profiles[id-1]
			want, _, err := plain.Discover(context.Background(), profile, k, id)
			if err != nil {
				t.Fatal(err)
			}
			td, err := d.f.Trapdoor(profile)
			if err != nil {
				t.Fatal(err)
			}
			queries := cf.queries.Load()
			decrypted += len(auditDecrypts(t, serving.Cache(), trapdoorKey(td), func() {
				got, partial, err := serving.Discover(context.Background(), profile, k, id)
				if err != nil || partial {
					t.Fatalf("sweep %d target %d: partial=%v err=%v", sweep, id, partial, err)
				}
				if err := EqualMatches(got, want); err != nil {
					t.Fatalf("sweep %d target %d: %v", sweep, id, err)
				}
			}))
			if cf.queries.Load() != queries+1 {
				t.Fatalf("sweep %d target %d: a sweep over 3× the cache must miss", sweep, id)
			}
			checkProfileTable(t, serving.Cache())
		}
		t.Logf("sweep %d: %d profiles decrypted by the serving path, %d held", sweep, decrypted, len(serving.Cache().profiles))
		if sweep == 1 && decrypted != 0 {
			t.Fatalf("second sweep decrypted %d profiles the live entries already held", decrypted)
		}
	}
}

// TestDynServingReinsertNewTag is the stale-reuse test: delete an id, then
// re-insert the same id under a different profile. The re-insert is a new
// ciphertext and hence a new tag, so the old vector can never be served for
// it: every search equals the plaintext oracle and the old tag leaves the
// table. The acknowledged put holds the new tag from the start, so it is
// never decrypted however many later misses list it, and its refcount is
// those listings plus the held set's.
func TestDynServingReinsertNewTag(t *testing.T) {
	const n, k = 300, 5
	f, ups, _, nodes, _, serv := dynServingFixture(t, n)
	oracle := f.NewDynOracle(ups)
	victim, donor := ups[12], ups[7]

	tagOf := func(id uint64) profileTag {
		t.Helper()
		for _, node := range nodes {
			if cts, err := node.FetchProfiles([]uint64{id}); err == nil && len(cts[0]) > 0 {
				tag, ok := crypt.Tag(cts[0])
				if !ok {
					t.Fatalf("profile %d: ciphertext carries no tag", id)
				}
				return tag
			}
		}
		t.Fatalf("profile %d stored on no shard", id)
		return profileTag{}
	}
	search := func(target []float64, exclude uint64) []profileTag {
		t.Helper()
		refs, err := serv.clients[0].Refs(f.family.Hash(target))
		if err != nil {
			t.Fatal(err)
		}
		return auditDecrypts(t, serv.Cache(), refsKey(refs), func() {
			got, partial, err := serv.Search(target, k, exclude)
			if err != nil || partial {
				t.Fatalf("search: partial=%v err=%v", partial, err)
			}
			ids := make([]uint64, len(got))
			for i, m := range got {
				ids[i] = m.ID
			}
			want, err := oracle.RankCandidates(target, ids, len(got), exclude)
			if err != nil {
				t.Fatal(err)
			}
			if err := EqualMatches(got, want); err != nil {
				t.Fatalf("search disagrees with the oracle: %v", err)
			}
		})
	}

	search(victim.Profile, 0) // holds the victim's old vector
	oldTag := tagOf(victim.ID)
	if serv.Cache().profiles[oldTag] == nil {
		t.Fatal("victim's profile not held after a search for it")
	}
	if err := serv.Delete(victim.ID, victim.Profile); err != nil {
		t.Fatal(err)
	}
	if err := serv.Insert(victim.ID, donor.Profile); err != nil {
		t.Fatal(err)
	}
	oracle.PutProfile(victim.ID, donor.Profile)
	newTag := tagOf(victim.ID)
	if newTag == oldTag {
		t.Fatal("re-insert under a new profile kept its tag")
	}
	if serv.Cache().profiles[oldTag] != nil {
		t.Fatal("deleted profile's vector still held")
	}
	if h := serv.Cache().profiles[newTag]; h == nil || h.refs != 1 || serv.Cache().holds[victim.ID].tag != newTag {
		t.Fatalf("re-inserted profile not held from its put: %v", h)
	}

	// Every member searches: distinct read sets, so all miss; the ones near
	// the donor list the re-inserted id.
	listed, newTagDecrypts := 0, 0
	for _, u := range ups[:64] {
		fresh := search(u.Profile, u.ID)
		for _, tag := range fresh {
			if tag == newTag {
				newTagDecrypts++
			}
		}
		refs, _ := serv.clients[0].Refs(f.family.Hash(u.Profile))
		for _, tag := range serv.Cache().entries[refsKey(refs)].Value.(*cacheEntry).tags {
			if tag == newTag {
				listed++
			}
		}
	}
	if listed < 2 || newTagDecrypts != 0 {
		t.Fatalf("re-inserted profile listed by %d misses, decrypted %d times, want >=2 and 0", listed, newTagDecrypts)
	}
	if h := serv.Cache().profiles[newTag]; h == nil || h.refs != listed+1 {
		t.Fatalf("new tag held %v, want %d references", h, listed+1)
	}
	checkProfileTable(t, serv.Cache())
}

// tcpDynServing builds an n-member 2-shard dynamic deployment behind real
// transport servers, each cloud with its own metric registry, and the
// cached serving path over it. The population carries spare profiles past
// n for inserts.
func tcpDynServing(t *testing.T, n, spare int) (*Frontend, *dataset.Dataset, []Upload, []*obs.Registry, *DynServing) {
	t.Helper()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n+spare)
	ups := uploadsFrom(ds, f)[:n]
	built, err := f.BuildShardedDynamicIndex(ups, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]*obs.Registry, len(built))
	nodes := make([]DynNode, len(built))
	for s := range built {
		cs := cloud.New()
		regs[s] = obs.NewRegistry()
		cs.SetRegistry(regs[s])
		srv := transport.NewServer(cs)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(ln); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx) // a slow shutdown only leaves this test's goroutines behind
		})
		remote := shard.NewRemote(ln.Addr().String())
		t.Cleanup(func() { remote.Close() })
		if err := remote.InstallDynIndex(built[s].Index); err != nil {
			t.Fatal(err)
		}
		if err := remote.PutProfiles(built[s].EncProfiles); err != nil {
			t.Fatal(err)
		}
		nodes[s] = remote
	}
	serv, err := f.NewDynServing(built, nodes, nil, ServingConfig{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	return f, ds, ups, regs, serv
}

// counterDelta returns the non-zero per-counter movement between two
// snapshots.
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// TestDynServingDecryptsOnceAcrossInvalidation: an insert that invalidates
// a cached search drops the answer, but the held set still covers every
// candidate the first miss fetched, so the same search's next miss
// decrypts nothing and fetches nothing: it
// reads exactly the first miss's buckets, no profile is served, and the
// first miss's profile legs are gone from the wire — its cloud and
// transport deltas are exactly the first miss's minus what replaying those
// legs costs. The answer is the oracle's.
func TestDynServingDecryptsOnceAcrossInvalidation(t *testing.T) {
	const n, spare, k = 300, 60, 5
	// The transport registry is restored by the first-registered cleanup,
	// which runs last, after every client and server is closed.
	treg := obs.NewRegistry()
	transport.SetRegistry(treg)
	t.Cleanup(func() { transport.SetRegistry(obs.Default) })
	f, ds, ups, regs, serv := tcpDynServing(t, n, spare)
	oracle := f.NewDynOracle(ups)
	owner := core.DefaultOwner(len(serv.nodes))
	target, exclude := ups[3].Profile, ups[3].ID
	readSet, err := serv.clients[0].Refs(f.family.Hash(target))
	if err != nil {
		t.Fatal(err)
	}
	reads := make(map[core.BucketRef]bool)
	for _, r := range readSet {
		reads[r] = true
	}

	type traffic struct {
		cloud, wire []map[string]int64
	}
	measure := func(op func()) traffic {
		before := make([]map[string]int64, len(regs))
		for s, reg := range regs {
			before[s] = reg.Snapshot().Counters
		}
		wire := treg.Snapshot().Counters
		op()
		var tr traffic
		for s, reg := range regs {
			tr.cloud = append(tr.cloud, counterDelta(before[s], reg.Snapshot().Counters))
		}
		tr.wire = []map[string]int64{counterDelta(wire, treg.Snapshot().Counters)}
		return tr
	}
	minus := func(a, b traffic) traffic {
		sub := func(x, y []map[string]int64) []map[string]int64 {
			out := make([]map[string]int64, len(x))
			for i := range x {
				out[i] = counterDelta(y[i], x[i])
			}
			return out
		}
		return traffic{cloud: sub(a.cloud, b.cloud), wire: sub(a.wire, b.wire)}
	}
	type miss struct {
		ids       []uint64
		decrypted int64
		traffic
		legs    []heldLeg
		matches []Match
	}
	search := func() miss {
		t.Helper()
		serv.cache.mu.Lock()
		seq := serv.cache.legSeq
		serv.cache.mu.Unlock()
		decrypted, misses := counter("frontend.profiles_decrypted"), counter("frontend.cache_misses")
		var m miss
		m.traffic = measure(func() {
			var partial bool
			if m.matches, partial, err = serv.Search(target, k, exclude); err != nil || partial {
				t.Fatalf("search: partial=%v err=%v", partial, err)
			}
		})
		if counter("frontend.cache_misses") != misses+1 {
			t.Fatal("search after an invalidating insert hit the cache")
		}
		m.decrypted = counter("frontend.profiles_decrypted") - decrypted
		serv.cache.mu.Lock()
		m.ids = slices.Clone(serv.cache.entries[refsKey(readSet)].Value.(*cacheEntry).ids)
		for _, leg := range serv.cache.legs {
			if leg.seq > seq {
				m.legs = append(m.legs, leg)
			}
		}
		serv.cache.mu.Unlock()
		return m
	}
	// cold is a miss over an empty profile table and held set: it decrypts
	// and fetches every candidate.
	cold := func() miss {
		t.Helper()
		serv.Cache().Flush()
		m := search()
		fetched := 0
		for _, leg := range m.legs {
			fetched += len(leg.ids)
		}
		if m.decrypted != int64(len(m.ids)) || fetched != len(m.ids) {
			t.Fatalf("cold miss over %d candidates decrypted %d and fetched %d", len(m.ids), m.decrypted, fetched)
		}
		return m
	}

	first := cold()
	// An insert invalidates the entry when its write set meets the read set;
	// it leaves the candidate set alone when the new id lands outside it and
	// kicks nothing across. Take the first spare profile that does both.
	for i := n; i < n+spare; i++ {
		id, profile := uint64(i+1), ds.Profiles[i]
		writes, err := serv.clients[0].Refs(f.family.Hash(profile))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(writes, func(r core.BucketRef) bool { return reads[r] }) {
			continue
		}
		invalidations := counter("frontend.cache_invalidations")
		if err := serv.Insert(id, profile); err != nil {
			t.Fatal(err)
		}
		oracle.PutProfile(id, profile)
		if counter("frontend.cache_invalidations") == invalidations {
			t.Fatalf("insert %d wrote a bucket the search read and invalidated nothing", id)
		}
		elided := counter("frontend.profiles_elided")
		second := search()
		if !slices.Equal(second.ids, first.ids) {
			first = cold()
			continue
		}
		if second.decrypted != 0 {
			t.Fatalf("the miss after an invalidating insert decrypted %d profiles, want 0", second.decrypted)
		}
		if len(second.legs) != 0 || counter("frontend.profiles_elided")-elided != int64(len(second.ids)) {
			t.Fatalf("the miss after an invalidating insert fetched %d legs and elided %d of %d candidates, want none fetched",
				len(second.legs), counter("frontend.profiles_elided")-elided, len(second.ids))
		}
		// What the first miss's profile legs cost, replayed leg by leg.
		legs := measure(func() {
			for _, leg := range first.legs {
				if _, err := serv.nodes[owner(leg.ids[0])].FetchProfiles(leg.ids); err != nil {
					t.Fatal(err)
				}
			}
		})
		served := int64(0)
		for _, c := range legs.cloud {
			served += c["cloud.profiles_served"]
			if len(c) > 1 || (len(c) == 1 && c["cloud.profiles_served"] == 0) {
				t.Fatalf("replayed profile legs moved cloud counters %v", c)
			}
		}
		if served != int64(len(first.ids)) || legs.wire[0]["transport.frames_out"] != int64(len(first.legs)) {
			t.Fatalf("replayed %d profile legs served %d profiles and sent %d frames, want %d and %d",
				len(first.legs), served, legs.wire[0]["transport.frames_out"], len(first.ids), len(first.legs))
		}
		if want := minus(first.traffic, legs); !reflect.DeepEqual(second.traffic, want) {
			t.Fatalf("second miss moved cloud %v wire %v, want the first miss's less its profile legs: cloud %v wire %v",
				second.cloud, second.wire, want.cloud, want.wire)
		}
		ids := make([]uint64, len(second.matches))
		for j, m := range second.matches {
			ids[j] = m.ID
		}
		want, err := oracle.RankCandidates(target, ids, len(ids), exclude)
		if err != nil {
			t.Fatal(err)
		}
		if err := EqualMatches(second.matches, want); err != nil {
			t.Fatalf("second miss disagrees with the oracle: %v", err)
		}
		checkProfileTable(t, serv.Cache())
		return
	}
	t.Fatal("no spare profile invalidated the search without changing its candidates")
}

// tamperingFanout records the tag of every ciphertext it relays and, once
// armed, flips one body byte of the answers it returns: of every
// ciphertext whose tag it relayed before (flipSeen) or of the first whose
// tag it did not (flipUnseen). Tags are left intact either way.
type tamperingFanout struct {
	inner                FanoutBatchServer
	mu                   sync.Mutex
	seen                 map[profileTag]bool
	flipSeen, flipUnseen bool
	flipped              int
}

func (f *tamperingFanout) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	ids, profiles, partial, err := f.inner.SecRecBatch(ctx, ts)
	f.mu.Lock()
	defer f.mu.Unlock()
	for q := range profiles {
		for i, ct := range profiles[q] {
			tag, _ := crypt.Tag(ct)
			if (f.seen[tag] && f.flipSeen) || (!f.seen[tag] && f.flipUnseen && f.flipped == 0) {
				ct = append([]byte(nil), ct...)
				ct[len(ct)/2] ^= 0x40
				profiles[q][i] = ct
				f.flipped++
			}
			f.seen[tag] = true
		}
	}
	return ids, profiles, partial, err
}

// TestProfileTableTamper pins what tag-keyed reuse does with a cloud that
// tampers. A seen tag over a flipped body is answered from the plaintext
// the frontend authenticated when it first saw that tag — the forged body
// is never read, so the result is the honest one (documented, DESIGN.md
// §15.1). An unseen tag over a flipped body takes the full decrypt path and
// fails authentication.
func TestProfileTableTamper(t *testing.T) {
	const n, k = 400, 5
	d := newStaticDeployment(t, n, 2)
	tf := &tamperingFanout{inner: d.pool, seen: make(map[profileTag]bool)}
	serving, err := d.f.NewServing(tf, ServingConfig{CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	first, _, err := serving.Discover(ctx, d.profiles[0], k, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A neighbour's discovery misses the cache over largely the same
	// candidates: their tags are held, their bodies now arrive flipped.
	neighbour := first[0].ID
	want, _, err := uncached(t, d.f, d.pool).Discover(ctx, d.profiles[neighbour-1], k, neighbour)
	if err != nil {
		t.Fatal(err)
	}
	authFails := counter("crypt.dec_auth_fail")
	tf.flipSeen = true
	got, _, err := serving.Discover(ctx, d.profiles[neighbour-1], k, neighbour)
	if err != nil {
		t.Fatalf("seen tags over flipped bodies: %v", err)
	}
	if tf.flipped == 0 {
		t.Fatal("neighbour shares no candidate with the first discovery: nothing was tampered")
	}
	if err := EqualMatches(got, want); err != nil {
		t.Fatalf("seen tags over flipped bodies changed the answer: %v", err)
	}
	if counter("crypt.dec_auth_fail") != authFails {
		t.Fatal("a held tag was re-verified against the forged body")
	}

	// A forged body under a tag never seen is caught: find a target with at
	// least one candidate nobody has listed yet.
	tf.flipSeen, tf.flipUnseen, tf.flipped = false, true, 0
	for id := uint64(n); id > 0 && tf.flipped == 0; id-- {
		_, _, err = serving.Discover(ctx, d.profiles[id-1], k, id)
	}
	if tf.flipped != 1 {
		t.Fatal("no discovery returned an unseen ciphertext")
	}
	if !errors.Is(err, crypt.ErrAuthentication) {
		t.Fatalf("unseen tag over a flipped body: got %v, want ErrAuthentication", err)
	}
	if got := counter("crypt.dec_auth_fail") - authFails; got != 1 {
		t.Fatalf("crypt.dec_auth_fail moved by %d, want 1", got)
	}
	checkProfileTable(t, serving.Cache())
}
