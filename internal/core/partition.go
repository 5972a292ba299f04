package core

import (
	"fmt"
	"sync"
	"time"

	"pisd/internal/crypt"
)

// DefaultOwner returns the canonical user→shard assignment, id mod shards.
// The same function must be used when building the partitioned index, when
// distributing encrypted profiles, and when routing dynamic updates.
func DefaultOwner(shards int) func(uint64) int {
	return func(id uint64) int { return int(id % uint64(shards)) }
}

// BuildPartitioned implements ConSecIdx for a sharded cloud tier. It runs
// one cuckoo placement over the full population — identical, for the same
// keys, items and params, to the placement Build computes — and then
// projects it onto shards: shard s's index carries masked buckets for
// exactly the items owner assigns to s, with random padding everywhere
// else. Every shard index shares the single-node width and parameters, so
// one trapdoor addresses all shards, and the union over shards of
// SecRec(t, I_s) recovers exactly the identifiers SecRec(t, I) recovers
// from the equivalent single-node index: sharding changes where buckets
// live, not which buckets answer.
//
// owner maps an identifier to its shard in [0, shards); nil means
// DefaultOwner(shards). Per-shard encryption fans out across goroutines,
// so owner must be safe for concurrent calls (any pure function is).
func BuildPartitioned(keys *crypt.KeySet, items []Item, p Params, shards int, owner func(uint64) int) ([]*Index, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: shard count must be >= 1, got %d", shards)
	}
	if owner == nil {
		owner = DefaultOwner(shards)
	}
	for _, it := range items {
		if s := owner(it.ID); s < 0 || s >= shards {
			return nil, fmt.Errorf("core: owner(%d) = %d out of range [0,%d)", it.ID, s, shards)
		}
	}
	pl, err := NewPlacement(keys, p)
	if err != nil {
		return nil, err
	}
	insertStart := time.Now()
	if err := pl.Insert(items); err != nil {
		return nil, err
	}
	insertNanos := time.Since(insertStart).Nanoseconds()

	idxs := make([]*Index, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			idx, err := pl.project(func(id uint64) bool { return owner(id) == s })
			if err != nil {
				errs[s] = fmt.Errorf("core: shard %d: %w", s, err)
				return
			}
			// Placement cost is shared by all shards; the encryption
			// phase is the shard's own.
			idx.stats.InsertNanos = insertNanos
			idxs[s] = idx
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return idxs, nil
}
