package frontend

import (
	"cmp"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"slices"
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
// authenticated the first time its tag was seen, and how many cache-entry
// candidates list it.
type heldProfile struct {
	vec  []float64
	refs int
}

// cacheEntry is one cached cloud answer: the candidate identifiers the
// cloud returned (pre-rank, so one entry serves every k and excludeID),
// their profiles as references into the cache's profile table — tags[i]
// names the slot, vecs[i] is that slot's vector, never a private copy —
// plus the bucket references the answer was read from, for exact
// invalidation under dynamic churn. Plaintext profiles live only in
// trusted-frontend memory — the same trust domain as the keys — so caching
// them adds no leakage while sparing every hit the per-candidate MAC + AES
// work. el is the entry's element in the LRU while it is live, in the
// retired FIFO once it is retired.
type cacheEntry struct {
	key  CacheKey
	refs []core.BucketRef
	ids  []uint64
	tags []profileTag
	vecs [][]float64
	el   *list.Element
	seq  uint64 // Put order
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
// ciphertext's tag and reference-counted by the candidates that list it.
// An invalidated entry stops answering at once but becomes a retired
// answer: its listings keep their profiles held, so the miss that re-fetches
// the same candidates decrypts nothing. Live plus retired answers never
// exceed the entry bound — retired answers go first, oldest first — so the
// table never holds more than the bound's worth of answers pin, and its
// bound is the entry bound.
//
// A nil *ResultCache is the disabled cache: Get always misses, Put is a
// no-op and no profile is ever held.
type ResultCache struct {
	mu       sync.Mutex
	cap      int
	entries  map[CacheKey]*list.Element // values are *cacheEntry
	lru      *list.List                 // front = most recently used
	byRef    map[core.BucketRef]map[*cacheEntry]struct{}
	retired  *list.List               // values are *cacheEntry; front = oldest
	listedBy map[uint64][]*cacheEntry // retired answers listing each id
	profiles map[profileTag]*heldProfile
	puts     uint64
}

// NewResultCache returns a cache bounded to max entries; max <= 0 returns
// the disabled (nil) cache.
func NewResultCache(max int) *ResultCache {
	if max <= 0 {
		return nil
	}
	c := &ResultCache{cap: max, lru: list.New(), retired: list.New()}
	c.reset()
	return c
}

// reset empties every map. Callers hold c.mu or own c.
func (c *ResultCache) reset() {
	c.entries = make(map[CacheKey]*list.Element)
	c.byRef = make(map[core.BucketRef]map[*cacheEntry]struct{})
	c.listedBy = make(map[uint64][]*cacheEntry)
	c.profiles = make(map[profileTag]*heldProfile)
	c.lru.Init()
	c.retired.Init()
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
// tags[i] is profile i's tag and vecs[i] is set to the vector already held
// under it; reused counts the slots filled. An unseen tag, or a ciphertext
// too short to carry one, leaves vecs[i] nil for the decrypt step. A nil
// cache holds nothing and returns nil tags.
func (c *ResultCache) held(encProfiles [][]byte, vecs [][]float64) (tags []profileTag, reused int) {
	if c == nil {
		return nil, 0
	}
	tags = make([]profileTag, len(encProfiles))
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ct := range encProfiles {
		var ok bool
		if tags[i], ok = crypt.Tag(ct); !ok {
			continue
		}
		if h := c.profiles[tags[i]]; h != nil {
			vecs[i] = h.vec
			reused++
		}
	}
	return tags, reused
}

// Put stores one decrypted cloud answer under key, recording refs as its
// read set (nil refs means the entry never self-invalidates — correct
// for the static index, which is immutable). tags[i] is the tag of the
// ciphertext vecs[i] was decrypted from: a profile the table already holds
// is adopted — vecs[i] is repointed at the table's vector and the caller's
// copy dropped — so every entry references the one held copy. Beyond the
// bound it expires retired answers, oldest first, then evicts
// least-recently-used entries. An answer whose slices disagree in length
// is not stored.
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
		h := c.profiles[tag]
		if h == nil {
			h = &heldProfile{vec: vecs[i]}
			c.profiles[tag] = h
			fmet.profHeld.Add(1)
		}
		h.refs++
		vecs[i] = h.vec
	}
	c.puts++
	e := &cacheEntry{key: key, refs: refs, ids: ids, tags: tags, vecs: vecs, seq: c.puts}
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
	for c.lru.Len()+c.retired.Len() > c.cap {
		if oldest := c.retired.Front(); oldest != nil {
			c.expire(oldest.Value.(*cacheEntry))
		} else {
			c.remove(c.lru.Back().Value.(*cacheEntry))
		}
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

// InvalidateRefs retires every entry whose read set intersects refs and
// returns how many were retired. A retired entry never answers again.
func (c *ResultCache) InvalidateRefs(refs []core.BucketRef) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped []*cacheEntry
	for _, r := range refs {
		for e := range c.byRef[r] {
			c.unlink(e)
			dropped = append(dropped, e)
		}
	}
	// Retired in the order they were stored, so which answers expire first
	// does not depend on map iteration order.
	slices.SortFunc(dropped, func(a, b *cacheEntry) int { return cmp.Compare(a.seq, b.seq) })
	for _, e := range dropped {
		c.retire(e)
	}
	if len(dropped) > 0 {
		fmet.cacheInvalids.Add(int64(len(dropped)))
	}
	return len(dropped)
}

// forget releases every retired listing of id — the profile of a user just
// deleted — so its vector leaves the table unless a live entry still lists
// it, and expires retired answers left listing nothing.
func (c *ResultCache) forget(id uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.listedBy[id] {
		// Rebuilt, not edited in place: a reader may still hold the ids the
		// entry answered with while it was live.
		var ids []uint64
		var tags []profileTag
		for i, listed := range e.ids {
			if listed == id {
				c.release(e.tags[i])
				continue
			}
			ids, tags = append(ids, listed), append(tags, e.tags[i])
		}
		e.ids, e.tags = ids, tags
		if len(ids) == 0 {
			c.retired.Remove(e.el)
		}
	}
	delete(c.listedBy, id)
}

// unlink takes live entry e out of the LRU, the key map and the reverse
// ref index. Callers hold c.mu.
func (c *ResultCache) unlink(e *cacheEntry) {
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
}

// remove drops live entry e and releases its listings. Callers hold c.mu.
func (c *ResultCache) remove(e *cacheEntry) {
	c.unlink(e)
	for _, tag := range e.tags {
		c.release(tag)
	}
}

// retire moves unlinked entry e to the back of the retired FIFO, keeping
// its listings. Callers hold c.mu.
func (c *ResultCache) retire(e *cacheEntry) {
	e.refs, e.vecs = nil, nil
	e.el = c.retired.PushBack(e)
	for _, id := range e.ids {
		c.listedBy[id] = append(c.listedBy[id], e)
	}
}

// expire drops retired answer e and releases its listings. Callers hold
// c.mu.
func (c *ResultCache) expire(e *cacheEntry) {
	c.retired.Remove(e.el)
	for i, id := range e.ids {
		c.release(e.tags[i])
		by := c.listedBy[id]
		if at := slices.Index(by, e); at >= 0 {
			by = slices.Delete(by, at, at+1)
		}
		if len(by) == 0 {
			delete(c.listedBy, id)
		} else {
			c.listedBy[id] = by
		}
	}
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

// Flush empties the cache, its retired answers and, with them, the profile
// table.
func (c *ResultCache) Flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fmet.profHeld.Add(-int64(len(c.profiles)))
	c.reset()
}
