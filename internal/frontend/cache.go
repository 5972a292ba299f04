package frontend

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"pisd/internal/core"
	"pisd/internal/crypt"
)

// CacheKey identifies one result-cache entry: a digest of the exact bytes
// the cloud observes for the query (the trapdoor, or the dynamic scheme's
// bucket references). Two queries share a key iff the cloud could not
// tell them apart either — the similarity-search-pattern leakage of
// Definition 4 — which is what makes caching on this key leakage-free
// (DESIGN.md §15).
type CacheKey [sha256.Size]byte

// trapdoorKey digests a static-scheme trapdoor. Positions and masks are
// fixed-width for fixed params, so the concatenation is injective.
func trapdoorKey(t *core.Trapdoor) CacheKey {
	h := sha256.New()
	var buf [8]byte
	for _, entries := range t.Tables {
		for _, e := range entries {
			binary.LittleEndian.PutUint64(buf[:], e.Pos)
			h.Write(buf[:])
			h.Write(e.Mask)
		}
	}
	for _, m := range t.Stash {
		h.Write(m)
	}
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// refsKey digests the dynamic scheme's bucket-reference list — the read
// set the cloud observes for a dynamic search.
func refsKey(refs []core.BucketRef) CacheKey {
	h := sha256.New()
	var buf [16]byte
	for _, r := range refs {
		binary.LittleEndian.PutUint64(buf[:8], uint64(r.Table))
		binary.LittleEndian.PutUint64(buf[8:], r.Pos)
		h.Write(buf[:])
	}
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// profileTag addresses one plaintext profile by the encrypt-then-MAC tag
// that ends its ciphertext S*. The tag authenticates IV‖C under the
// k_s-derived MAC key, so equal tags mean the same ciphertext the frontend
// already verified; a re-insert of an id under a new profile is a new
// ciphertext and hence a new tag (DESIGN.md §15.1).
type profileTag = [crypt.MACSize]byte

// heldProfile is one profile-table slot: the vector decrypted and
// authenticated the first time its tag was seen, and how many listings —
// cache-entry candidates and held-set ids — name it.
type heldProfile struct {
	vec  []float64
	refs int
}

// heldID is one held-set listing: the tag of the id's current ciphertext
// and the sequence number of the profile leg that last carried it.
type heldID struct {
	tag profileTag
	leg uint64
}

// heldLeg is one profile leg the held set keeps: the ids whose ciphertext
// crossed the wire in it, in the order it carried them.
type heldLeg struct {
	seq uint64
	ids []uint64
}

// cacheEntry is one cached cloud answer: the candidate identifiers the
// cloud returned (pre-rank, so one entry serves every k and excludeID),
// their profiles as references into the cache's profile table — tags[i]
// names the slot, vecs[i] is that slot's vector, never a private copy —
// plus the bucket references the answer was read from, for exact
// invalidation under dynamic churn. Plaintext profiles live only in
// trusted-frontend memory — the same trust domain as the keys — so caching
// them adds no leakage while sparing every hit the per-candidate MAC + AES
// work. el is the entry's element in the LRU.
type cacheEntry struct {
	key  CacheKey
	refs []core.BucketRef
	ids  []uint64
	tags []profileTag
	vecs [][]float64
	el   *list.Element
}

// ResultCache is a bounded LRU of cloud answers keyed by search pattern.
// It is safe for concurrent use. Entries carry the bucket references they
// were derived from; InvalidateRefs drops every entry whose read set
// intersects a written batch, which the dynamic protocols make exact:
// every mutation round (including each kick of an insert chain) re-seals
// its full fetched batch through StoreBuckets, so hooking that call
// covers every bucket a mutation can touch.
//
// Under the entries sits one content-addressed plaintext profile table:
// every distinct profile the entries list is held once, keyed by its
// ciphertext's tag and reference-counted by the candidates that list it
// and by the held set, the ids whose current ciphertext crossed the wire in
// the last bound-many profile legs. An invalidated entry is dropped at
// once; the miss that re-reads its candidates finds them in the held set
// and neither fetches nor decrypts them again.
//
// A nil *ResultCache is the disabled cache: Get always misses, Put is a
// no-op and no profile is ever held.
type ResultCache struct {
	mu       sync.Mutex
	cap      int
	entries  map[CacheKey]*list.Element // values are *cacheEntry
	lru      *list.List                 // front = most recently used
	byRef    map[core.BucketRef]map[*cacheEntry]struct{}
	profiles map[profileTag]*heldProfile
	holds    map[uint64]heldID // H: ids whose current ciphertext a kept leg carried
	legs     []heldLeg         // H's legs in receipt order; front = oldest
	legSeq   uint64
}

// NewResultCache returns a cache bounded to max entries; max <= 0 returns
// the disabled (nil) cache.
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		return nil
	}
	c := &ResultCache{cap: max, lru: list.New()}
	c.reset()
	return c
}

// reset empties every map. Callers hold c.mu or own c.
func (c *ResultCache) reset() {
	c.entries = make(map[CacheKey]*list.Element)
	c.byRef = make(map[core.BucketRef]map[*cacheEntry]struct{})
	c.profiles = make(map[profileTag]*heldProfile)
	c.holds = make(map[uint64]heldID)
	c.legs = nil
	c.lru.Init()
}

// Get returns the cached candidate set for key: identifiers and
// decrypted profile vectors. The returned slices are shared with the
// cache and must not be mutated (the rank path only reads them).
func (c *ResultCache) Get(key CacheKey) (ids []uint64, vecs [][]float64, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, nil, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.ids, e.vecs, true
}

// held resolves a cloud answer's ciphertexts against the profile table:
// tags[i] is set to profile i's tag and vecs[i] to the vector already held
// under it; reused counts the slots filled, including slots the held set
// filled before the fetch (vecs[i] already set, no ciphertext). An unseen
// tag, or a ciphertext too short to carry one, leaves vecs[i] nil for the
// decrypt step. A nil cache holds nothing and leaves tags alone.
func (c *ResultCache) held(encProfiles [][]byte, tags []profileTag, vecs [][]float64) (reused int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ct := range encProfiles {
		if vecs[i] != nil {
			reused++
			continue
		}
		var ok bool
		if tags[i], ok = crypt.Tag(ct); !ok {
			continue
		}
		if h := c.profiles[tags[i]]; h != nil {
			vecs[i] = h.vec
			reused++
		}
	}
	return reused
}

// elide splits a shard's search answer against the held set: for each id
// H lists, tags[i] and vecs[i] are set to its current ciphertext's tag and
// the table's vector; the rest are returned, in order, as the ids left to
// fetch. A nil cache holds nothing and returns ids.
func (c *ResultCache) elide(ids []uint64, tags []profileTag, vecs [][]float64) (fetch []uint64) {
	if c == nil {
		return ids
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, id := range ids {
		if h, ok := c.holds[id]; ok {
			tags[i], vecs[i] = h.tag, c.profiles[h.tag].vec
			continue
		}
		fetch = append(fetch, id)
	}
	return fetch
}

// hold records one profile leg in the held set: the candidates ids[i]
// whose ciphertext cts[i] crossed the wire, tagged tags[i] and decrypted to
// vecs[i], which is repointed at the table's vector; candidates without a
// ciphertext did not cross and are skipped, and a leg that carried none is
// no leg. A re-held id moves to this leg under its new tag. When the leg is
// the cap+1st kept, the oldest leaves and releases the ids it last carried.
func (c *ResultCache) hold(ids []uint64, cts [][]byte, tags []profileTag, vecs [][]float64) {
	if c == nil {
		return
	}
	var carried []uint64
	for i, ct := range cts {
		if ct != nil {
			carried = append(carried, ids[i])
		}
	}
	if len(carried) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.legSeq++
	for i, id := range ids {
		if cts[i] == nil {
			continue
		}
		if old, ok := c.holds[id]; ok {
			c.release(old.tag)
		}
		vecs[i] = c.pin(tags[i], vecs[i])
		c.holds[id] = heldID{tag: tags[i], leg: c.legSeq}
	}
	c.legs = append(c.legs, heldLeg{seq: c.legSeq, ids: carried})
	if len(c.legs) > c.cap {
		oldest := c.legs[0]
		c.legs = c.legs[1:]
		for _, id := range oldest.ids {
			if h, ok := c.holds[id]; ok && h.leg == oldest.seq {
				c.unhold(id, h)
			}
		}
	}
}

// Put stores one decrypted cloud answer under key, recording refs as its
// read set (nil refs means the entry never self-invalidates — correct
// for the static index, which is immutable). tags[i] is the tag of the
// ciphertext vecs[i] was decrypted from: a profile the table already holds
// is adopted — vecs[i] is repointed at the table's vector and the caller's
// copy dropped — so every entry references the one held copy. Beyond the
// bound it evicts least-recently-used entries. An answer whose slices
// disagree in length is not stored.
func (c *ResultCache) Put(key CacheKey, refs []core.BucketRef, ids []uint64, tags []profileTag, vecs [][]float64) {
	if c == nil || len(tags) != len(vecs) || len(ids) != len(vecs) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Refreshed answer for a key already present: replace in place.
		c.remove(el.Value.(*cacheEntry))
	}
	for i, tag := range tags {
		vecs[i] = c.pin(tag, vecs[i])
	}
	e := &cacheEntry{key: key, refs: refs, ids: ids, tags: tags, vecs: vecs}
	e.el = c.lru.PushFront(e)
	c.entries[key] = e.el
	for _, r := range refs {
		set := c.byRef[r]
		if set == nil {
			set = make(map[*cacheEntry]struct{})
			c.byRef[r] = set
		}
		set[e] = struct{}{}
	}
	for c.lru.Len() > c.cap {
		c.remove(c.lru.Back().Value.(*cacheEntry))
	}
}

// lookup is the one cache protocol every cached route runs: a hit replays
// the stored candidates; a miss runs fill and stores its answer under key
// with refs as the read set — unless partial: a recovered shard must not
// be masked by a degraded cached result. A nil cache always misses.
func (c *ResultCache) lookup(key CacheKey, refs []core.BucketRef, fill func() (candidates, error)) (candidates, error) {
	if ids, vecs, ok := c.Get(key); ok {
		fmet.cacheHits.Inc()
		return candidates{ids: ids, vecs: vecs}, nil
	}
	fmet.cacheMisses.Inc()
	cands, err := fill()
	if err != nil {
		return candidates{}, err
	}
	if !cands.partial {
		c.Put(key, refs, cands.ids, cands.tags, cands.vecs)
	}
	return cands, nil
}

// InvalidateRefs drops every entry whose read set intersects refs and
// returns how many were dropped.
func (c *ResultCache) InvalidateRefs(refs []core.BucketRef) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for _, r := range refs {
		for e := range c.byRef[r] {
			c.remove(e)
			dropped++
		}
	}
	if dropped > 0 {
		fmet.cacheInvalids.Add(int64(dropped))
	}
	return dropped
}

// forget drops id's held-set listing — the profile of a user just deleted,
// or one whose stored ciphertext is in doubt — so its vector leaves the
// table unless a live entry still lists it.
func (c *ResultCache) forget(id uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok := c.holds[id]; ok {
		c.unhold(id, h)
	}
}

// remove takes entry e out of the LRU, the key map and the reverse ref
// index, and releases its listings. Callers hold c.mu.
func (c *ResultCache) remove(e *cacheEntry) {
	c.lru.Remove(e.el)
	delete(c.entries, e.key)
	for _, r := range e.refs {
		if set := c.byRef[r]; set != nil {
			delete(set, e)
			if len(set) == 0 {
				delete(c.byRef, r)
			}
		}
	}
	for _, tag := range e.tags {
		c.release(tag)
	}
}

// pin adds one listing of tag, holding vec under it unless the table
// already holds a vector there, and returns the table's vector. Callers
// hold c.mu.
func (c *ResultCache) pin(tag profileTag, vec []float64) []float64 {
	h := c.profiles[tag]
	if h == nil {
		h = &heldProfile{vec: vec}
		c.profiles[tag] = h
		fmet.profHeld.Add(1)
	}
	h.refs++
	return h.vec
}

// unhold drops id's held-set listing h. Callers hold c.mu.
func (c *ResultCache) unhold(id uint64, h heldID) {
	c.release(h.tag)
	delete(c.holds, id)
}

// release drops one listing of tag: a profile leaves the table with the
// last listing. Callers hold c.mu.
func (c *ResultCache) release(tag profileTag) {
	h := c.profiles[tag]
	if h.refs--; h.refs == 0 {
		delete(c.profiles, tag)
		fmet.profHeld.Add(-1)
	}
}

// Len returns the live entry count.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Flush empties the cache, the held set and, with them, the profile table.
func (c *ResultCache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fmet.profHeld.Add(-int64(len(c.profiles)))
	c.reset()
}
