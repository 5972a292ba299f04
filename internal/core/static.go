package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"pisd/internal/crypt"
	"pisd/internal/cuckoo"
	"pisd/internal/lsh"
)

// ErrNeedRehash is returned by Build when cuckoo insertion exceeded MaxLoop
// kicks: the caller must derive fresh LSH metadata (rehash()) and rebuild.
var ErrNeedRehash = errors.New("core: insertion failed, rehash with fresh LSH parameters required")

// Item pairs a user identifier L with its LSH metadata V.
type Item struct {
	ID   uint64
	Meta lsh.Metadata
}

// Index is the static secure index I hosted by the cloud server. It holds
// only masked buckets and random padding; without the key set its content
// is computationally indistinguishable from random (Theorem 1).
type Index struct {
	params Params
	width  int
	// tables[j] is table T_j; each bucket is a BucketSize-byte masked
	// payload or random padding.
	tables [][][]byte
	// stash holds the StashSize overflow buckets, masked like ordinary
	// buckets and scanned by every trapdoor.
	stash [][]byte
	n     int
	stats BuildStats
}

// BuildStats reports observable build behaviour (Fig. 4(c) and 5(a)).
type BuildStats struct {
	// Kicks is the number of cuckoo kick-away operations during build.
	Kicks int
	// PrimaryHits and ProbeHits count how insertions were resolved.
	PrimaryHits int
	ProbeHits   int
	// StashHits counts items parked in the stash.
	StashHits int
	// InsertNanos and EncryptNanos split the build cost into the cuckoo
	// placement phase and the bucket-encryption phase.
	InsertNanos  int64
	EncryptNanos int64
}

// Build implements ConSecIdx(K, S, V) for the identifier/metadata part: it
// places every item with primary insertion, random probing and cuckoo
// kick-aways (Algorithms 1–3), then encrypts occupied buckets with PRF
// masks and fills empty buckets with random padding. It is the one-shard
// BuildPartitioned.
//
// Profile encryption (S* = Enc(ks, S)) is a separate concern; see
// crypt.EncProfile and the frontend package.
func Build(keys *crypt.KeySet, items []Item, p Params) (*Index, error) {
	idxs, err := BuildPartitioned(keys, items, p, 1, nil)
	if err != nil {
		return nil, err
	}
	return idxs[0], nil
}

// newPlacer constructs the shared cuckoo engine with PRF addressing. The
// per-table PRF handles are resolved once up front so placement — the
// kick-away-heavy inner loop of Algorithm 2 — never takes the key-cache
// lock.
func newPlacer(keys *crypt.KeySet, p Params) (*cuckoo.Index, error) {
	prfs := make([]*crypt.PRF, p.Tables)
	for j := range prfs {
		prfs[j] = keys.TablePRF(j)
	}
	cp := cuckoo.Params{
		Tables:     p.Tables,
		Capacity:   p.Capacity,
		ProbeRange: p.ProbeRange,
		MaxLoop:    p.MaxLoop,
		Seed:       p.Seed,
		StashSize:  p.StashSize,
		PosFunc: func(table int, key uint64, delta, width int) int {
			return prfPos(prfs[table], key, delta, width)
		},
	}
	return cuckoo.New(cp)
}

// encryptStatic runs the encryption phase of Algorithm 1 over a filled
// placer: masked buckets for occupied slots, random padding elsewhere.
// Padding and mask derivation are independent per table, so the phase
// fans out across CPUs. A non-nil include filter restricts the encrypted
// identifiers to a subset of the placement (a shard or a segment); excluded
// slots stay random padding, indistinguishable from empty buckets. The
// index's item count is the number of included identifiers the walks meet.
func encryptStatic(keys *crypt.KeySet, placer *cuckoo.Index, p Params, include func(uint64) bool) (*Index, error) {
	w := placer.Width()
	idx := &Index{params: p, width: w}
	st := placer.Stats()
	idx.stats.Kicks = st.Kicks
	idx.stats.PrimaryHits = st.PrimaryHits
	idx.stats.ProbeHits = st.ProbeHits

	idx.tables = make([][][]byte, p.Tables)
	// Collect occupied slots per table so each worker touches only its
	// own table's buckets.
	occupied := make([][]struct {
		pos int
		id  uint64
	}, p.Tables)
	placer.Walk(func(table, pos int, id uint64) {
		if include != nil && !include(id) {
			return
		}
		idx.n++
		occupied[table] = append(occupied[table], struct {
			pos int
			id  uint64
		}{pos, id})
	})

	workers := runtime.GOMAXPROCS(0)
	if workers > p.Tables {
		workers = p.Tables
	}
	if workers < 1 {
		workers = 1
	}
	tableCh := make(chan int, p.Tables)
	for j := 0; j < p.Tables; j++ {
		tableCh <- j
	}
	close(tableCh)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One DRBG per worker: padding comes from an AES-CTR
			// keystream under a fresh random seed instead of one kernel
			// read per table (see DESIGN.md §10 for the leakage argument).
			drbg, err := crypt.NewDRBG()
			if err != nil {
				errCh <- fmt.Errorf("core: random padding: %w", err)
				return
			}
			var mask [BucketSize]byte
			for j := range tableCh {
				// One contiguous allocation per table keeps the 1M-user
				// build within memory and makes SizeBytes exact.
				flat := make([]byte, w*BucketSize)
				drbg.Fill(flat)
				buckets := make([][]byte, w)
				for pos := 0; pos < w; pos++ {
					buckets[pos] = flat[pos*BucketSize : (pos+1)*BucketSize]
				}
				prf := keys.TablePRF(j)
				for _, slot := range occupied[j] {
					payload := encodePayload(slot.id)
					prf.MaskInto(mask[:], j, uint64(slot.pos))
					crypt.XOR(buckets[slot.pos], mask[:], payload[:])
				}
				idx.tables[j] = buckets
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}
	// Stash: random padding, then mask the occupied slots.
	drbg, err := crypt.NewDRBG()
	if err != nil {
		return nil, fmt.Errorf("core: stash padding: %w", err)
	}
	idx.stash = make([][]byte, p.StashSize)
	stashFlat := make([]byte, p.StashSize*BucketSize)
	drbg.Fill(stashFlat)
	for pos := range idx.stash {
		idx.stash[pos] = stashFlat[pos*BucketSize : (pos+1)*BucketSize]
	}
	var mask [BucketSize]byte
	placer.WalkStash(func(pos int, id uint64) {
		if include != nil && !include(id) {
			return
		}
		idx.n++
		payload := encodePayload(id)
		stashMaskInto(mask[:], keys, p.Tables, pos)
		crypt.XOR(idx.stash[pos], mask[:], payload[:])
	})
	idx.stats.StashHits = placer.Stats().StashHits
	return idx, nil
}

// Params returns the index parameters (public, shared with the cloud).
func (x *Index) Params() Params { return x.params }

// Len returns n, the number of indexed items.
func (x *Index) Len() int { return x.n }

// Width returns w, the per-table bucket count.
func (x *Index) Width() int { return x.width }

// SizeBytes returns the exact storage footprint of the bucket arrays:
// u · (w·l + stash), the paper's O(n) index size.
func (x *Index) SizeBytes() int {
	return (x.params.Tables*x.width + len(x.stash)) * BucketSize
}

// LoadFactor returns n / (w·l).
func (x *Index) LoadFactor() float64 {
	return float64(x.n) / float64(x.width*x.params.Tables)
}

// BuildStats returns the recorded build statistics.
func (x *Index) BuildStats() BuildStats { return x.stats }

// Bucket returns the raw encrypted bucket at (table, pos); used by tests to
// verify indistinguishability and by the transport layer.
func (x *Index) Bucket(table int, pos uint64) ([]byte, error) {
	if table < 0 || table >= x.params.Tables || pos >= uint64(x.width) {
		return nil, fmt.Errorf("core: bucket (%d,%d) out of range", table, pos)
	}
	return x.tables[table][pos], nil
}

// SecRecScratch holds the reusable working state of a SecRec evaluation —
// the dedup set and the unmask buffer — so servers answering many queries
// (the sharded fan-out in particular) allocate neither per query nor per
// shard. A scratch is single-goroutine state; pool or confine it.
type SecRecScratch struct {
	seen map[uint64]struct{}
	buf  [BucketSize]byte
}

// NewSecRecScratch returns a scratch sized for p's per-query bucket count.
func NewSecRecScratch(p Params) *SecRecScratch {
	return &SecRecScratch{seen: make(map[uint64]struct{}, p.BucketsPerQuery())}
}

// SecRec implements M ← SecRec(t, I) minus the profile fetch: given a
// trapdoor it unmasks the l·(d+1) addressed buckets and returns the
// recovered identifiers (deduplicated, order of discovery). The cloud then
// returns the referenced encrypted profiles {S*}; see cloud.Server.
//
// SecRec requires no key material: the trapdoor carries positions and
// one-time masks, exactly the view the security proof simulates.
func (x *Index) SecRec(t *Trapdoor) ([]uint64, error) {
	return x.SecRecWith(t, nil)
}

// SecRecWith is SecRec with caller-provided scratch; a nil scratch
// allocates fresh working state for this call.
func (x *Index) SecRecWith(t *Trapdoor, sc *SecRecScratch) ([]uint64, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil trapdoor")
	}
	if len(t.Tables) != x.params.Tables {
		return nil, fmt.Errorf("core: trapdoor covers %d tables, index has %d", len(t.Tables), x.params.Tables)
	}
	if sc == nil {
		sc = NewSecRecScratch(x.params)
	}
	clear(sc.seen)
	ids := make([]uint64, 0, x.params.BucketsPerQuery())
	for j, entries := range t.Tables {
		for i := range entries {
			e := &entries[i]
			if e.Pos >= uint64(x.width) {
				return nil, fmt.Errorf("core: trapdoor position %d out of range (w=%d)", e.Pos, x.width)
			}
			var err error
			if ids, err = sc.collect(ids, x.tables[j][e.Pos], e.Mask); err != nil {
				return nil, err
			}
		}
	}
	if len(t.Stash) > len(x.stash) {
		return nil, fmt.Errorf("core: trapdoor stash covers %d slots, index has %d", len(t.Stash), len(x.stash))
	}
	for pos, mask := range t.Stash {
		var err error
		if ids, err = sc.collect(ids, x.stash[pos], mask); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// collect unmasks one bucket into the scratch buffer and appends any
// recovered, not-yet-seen identifier to ids.
func (sc *SecRecScratch) collect(ids []uint64, masked, mask []byte) ([]uint64, error) {
	if len(mask) != BucketSize {
		return ids, fmt.Errorf("core: trapdoor mask length %d, want %d", len(mask), BucketSize)
	}
	crypt.XOR(sc.buf[:], mask, masked)
	if id, ok := decodePayload(sc.buf); ok {
		if _, dup := sc.seen[id]; !dup {
			sc.seen[id] = struct{}{}
			ids = append(ids, id)
		}
	}
	return ids, nil
}
