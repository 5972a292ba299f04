package core

import (
	"errors"
	"fmt"
	"time"

	"pisd/internal/crypt"
	"pisd/internal/cuckoo"
)

// Placement is the one static build (ConSecIdx, Algorithm 1): the caller
// feeds core.Item batches into one global cuckoo placement and, once every
// item is placed, projects it onto encrypted indexes — a shard's users
// (BuildPartitioned, and Build as its one-shard case) or an identifier
// range (EncryptRange, a segment). Each projection is a full-width Index
// whose buckets mask exactly its placed identifiers, with random padding
// everywhere else, so the union over any partition recovers, for every
// trapdoor, exactly what the whole placement's index recovers (DESIGN.md
// §9).
//
// Streaming is the point of the split: a Placement needs only the
// placement state (identifier + metadata per item) plus one projection's
// bucket arrays at a time. The million-profile build path in
// internal/segstore is built on it.
type Placement struct {
	keys   *crypt.KeySet
	placer *cuckoo.Index
	p      Params
	n      int
}

// NewPlacement starts an empty streaming placement.
func NewPlacement(keys *crypt.KeySet, p Params) (*Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkKeys(keys, p); err != nil {
		return nil, err
	}
	placer, err := newPlacer(keys, p)
	if err != nil {
		return nil, err
	}
	return &Placement{keys: keys, placer: placer, p: p}, nil
}

// Params returns the placement's index parameters.
func (pl *Placement) Params() Params { return pl.p }

// Stats returns the placement's cuckoo statistics — kicks, probe hits and
// stash occupancy — for build observability: a stash close to full means
// the population is outgrowing the rehash-free streaming path.
func (pl *Placement) Stats() cuckoo.Stats { return pl.placer.Stats() }

// Len returns the number of items inserted so far.
func (pl *Placement) Len() int { return pl.n }

// Insert places a batch of items; any chunking of the same items (in
// order) yields the same placement. ErrNeedRehash reports a kick budget
// exhaustion: the caller rehashes metadata and starts a fresh Placement.
func (pl *Placement) Insert(items []Item) error {
	for _, it := range items {
		if it.ID == bottomID {
			return fmt.Errorf("core: identifier %d is reserved", it.ID)
		}
		if err := pl.placer.Insert(it.ID, it.Meta); err != nil {
			if errors.Is(err, cuckoo.ErrFull) {
				return fmt.Errorf("%w: %v", ErrNeedRehash, err)
			}
			return fmt.Errorf("core: insert %d: %w", it.ID, err)
		}
		pl.n++
	}
	return nil
}

// EncryptRange projects the placement onto the identifier range [lo, hi):
// a full-width encrypted index carrying masked buckets for exactly the
// placed identifiers in the range and random padding elsewhere. Every
// projected index shares the placement's width and parameters, so one
// trapdoor addresses all of them; disjoint ranges produce indexes whose
// occupied buckets never overlap (the global placement assigns each
// identifier one slot).
//
// Insert must not be called after projection starts: later insertions kick
// earlier items between buckets and would invalidate already-projected
// segments.
func (pl *Placement) EncryptRange(lo, hi uint64) (*Index, error) {
	if lo >= hi {
		return nil, fmt.Errorf("core: empty segment range [%d, %d)", lo, hi)
	}
	return pl.project(func(id uint64) bool { return id >= lo && id < hi })
}

// project encrypts the placement's identifiers that include accepts (nil:
// all of them) into a full-width index, the one projection behind shards
// and segments alike. It is safe to run concurrently once insertion is
// done.
func (pl *Placement) project(include func(uint64) bool) (*Index, error) {
	start := time.Now()
	idx, err := encryptStatic(pl.keys, pl.placer, pl.p, include)
	if err != nil {
		return nil, err
	}
	idx.stats.EncryptNanos = time.Since(start).Nanoseconds()
	return idx, nil
}

// RecoverID unmasks one static bucket with its trapdoor mask and reports
// the recovered identifier, ok=false for padding. It is SecRec's per-bucket
// step exposed for stores that keep buckets outside an Index (the segment
// store reads bucket ranges from disk on demand).
func RecoverID(masked, mask []byte) (uint64, bool) {
	if len(masked) != BucketSize || len(mask) != BucketSize {
		return 0, false
	}
	var buf [BucketSize]byte
	crypt.XOR(buf[:], mask, masked)
	return decodePayload(buf)
}
