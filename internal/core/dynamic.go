package core

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"

	"pisd/internal/crypt"
	"pisd/internal/lsh"
)

// rSize is the byte length of a dynamic bucket's random value r.
const rSize = 16

var (
	// ErrNotIndexed is returned by dynamic Delete when the identifier is
	// not reachable through its metadata.
	ErrNotIndexed = errors.New("core: identifier not indexed")
	// ErrAlreadyIndexed is returned by dynamic Insert when the identifier
	// is already reachable through its metadata.
	ErrAlreadyIndexed = errors.New("core: identifier already indexed")
)

// DynBucket is one bucket of the dynamic scheme (Sec. III-D):
// B = (G(r) ⊕ (L ‖ V), Enc(k_r, r)). Both components are refreshed with a
// new random r on every re-mask, so the cloud cannot tell which bucket of a
// touched batch actually changed.
type DynBucket struct {
	// Masked is G(r) ⊕ (L ‖ V), dynPayloadSize(l) bytes.
	Masked []byte
	// EncR is Enc(k_r, r).
	EncR []byte
}

// clone returns a deep copy of the bucket.
func (b DynBucket) clone() DynBucket {
	return DynBucket{
		Masked: append([]byte(nil), b.Masked...),
		EncR:   append([]byte(nil), b.EncR...),
	}
}

// SizeBytes returns the wire size of the bucket.
func (b DynBucket) SizeBytes() int { return len(b.Masked) + len(b.EncR) }

// BucketRef addresses one bucket of the dynamic index.
type BucketRef struct {
	Table int
	Pos   uint64
}

// BucketStore is the cloud-side surface the dynamic front-end client
// drives: fetch a batch of buckets and replace a batch of buckets. The
// in-memory DynIndex implements it directly; the transport layer exposes
// the same surface over the network.
type BucketStore interface {
	// FetchBuckets returns the buckets at the given references, in order.
	FetchBuckets(refs []BucketRef) ([]DynBucket, error)
	// StoreBuckets replaces the buckets at the given references.
	StoreBuckets(refs []BucketRef, buckets []DynBucket) error
}

// DynIndex is the cloud-resident dynamic secure index. Like Index it holds
// no keys; every bucket is masked payload plus an encrypted random value.
type DynIndex struct {
	params Params
	width  int
	tables [][]DynBucket
}

var _ BucketStore = (*DynIndex)(nil)

// Params returns the index parameters.
func (x *DynIndex) Params() Params { return x.params }

// Width returns w, the per-table bucket count.
func (x *DynIndex) Width() int { return x.width }

// SizeBytes returns the storage footprint of all buckets.
func (x *DynIndex) SizeBytes() int {
	if x.width == 0 || x.params.Tables == 0 {
		return 0
	}
	per := x.tables[0][0].SizeBytes()
	return x.params.Tables * x.width * per
}

// FetchBuckets implements BucketStore.
func (x *DynIndex) FetchBuckets(refs []BucketRef) ([]DynBucket, error) {
	out := make([]DynBucket, len(refs))
	for i, r := range refs {
		if r.Table < 0 || r.Table >= x.params.Tables || r.Pos >= uint64(x.width) {
			return nil, fmt.Errorf("core: bucket ref (%d,%d) out of range", r.Table, r.Pos)
		}
		out[i] = x.tables[r.Table][r.Pos].clone()
	}
	return out, nil
}

// StoreBuckets implements BucketStore.
func (x *DynIndex) StoreBuckets(refs []BucketRef, buckets []DynBucket) error {
	if len(refs) != len(buckets) {
		return fmt.Errorf("core: %d refs but %d buckets", len(refs), len(buckets))
	}
	want := dynPayloadSize(x.params.Tables)
	for i, r := range refs {
		if r.Table < 0 || r.Table >= x.params.Tables || r.Pos >= uint64(x.width) {
			return fmt.Errorf("core: bucket ref (%d,%d) out of range", r.Table, r.Pos)
		}
		if len(buckets[i].Masked) != want {
			return fmt.Errorf("core: masked payload length %d, want %d", len(buckets[i].Masked), want)
		}
		x.tables[r.Table][r.Pos] = buckets[i].clone()
	}
	return nil
}

// DynClient holds the front-end (SF) side of the dynamic scheme: it owns
// the keys and performs unmasking, re-masking and the interactive secure
// deletion / insertion protocols against a BucketStore.
//
// A DynClient is safe for concurrent use: each Search / Delete / Insert
// runs under an internal lock, so operations on one client serialize. A
// sharded deployment gives every shard its own client (they share keys and
// params), which keeps cross-shard fan-out fully parallel.
type DynClient struct {
	keys *crypt.KeySet
	p    Params
	// tprfs[j] and gprf are the precomputed PRF handles for table j's
	// position key and k_G; resolved once so the hot seal/open/Refs paths
	// skip the key-cache lookup.
	tprfs []*crypt.PRF
	gprf  *crypt.PRF
	// mu serializes operations: protects rng, stats, drbg, maskBuf and —
	// more importantly — keeps each multi-round protocol's
	// fetch/modify/store sequence atomic with respect to this client's
	// other operations. BuildDynamic seals pre-publication from a single
	// goroutine, the one place seal runs without mu.
	mu  sync.Mutex
	rng *mrand.Rand
	// drbg supplies the per-bucket random values r and the Enc IVs; one
	// kernel read at construction instead of two per sealed bucket.
	drbg *crypt.DRBG
	// maskBuf is the reusable G(r) expansion buffer of seal/open.
	maskBuf []byte
	// Stats accumulates kick-aways and interaction rounds.
	stats DynStats
}

// DynStats reports observable dynamic-operation behaviour.
type DynStats struct {
	// Kicks counts kick-away rounds across all insertions.
	Kicks int
	// Rounds counts fetch/store round trips to the bucket store.
	Rounds int
}

// NewDynClient validates the configuration and returns a client. seed
// drives only the random choice of kick victims.
func NewDynClient(keys *crypt.KeySet, p Params, seed int64) (*DynClient, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkKeys(keys, p); err != nil {
		return nil, err
	}
	drbg, err := crypt.NewDRBG()
	if err != nil {
		return nil, fmt.Errorf("core: dynamic client: %w", err)
	}
	tprfs := make([]*crypt.PRF, p.Tables)
	for j := range tprfs {
		tprfs[j] = keys.TablePRF(j)
	}
	return &DynClient{
		keys:    keys,
		p:       p,
		tprfs:   tprfs,
		gprf:    keys.GPRF(),
		rng:     mrand.New(mrand.NewSource(seed)),
		drbg:    drbg,
		maskBuf: make([]byte, dynPayloadSize(p.Tables)),
	}, nil
}

// Stats returns accumulated operation statistics.
func (c *DynClient) Stats() DynStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ResetStats zeroes the statistics counters.
func (c *DynClient) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = DynStats{}
}

// Refs returns the l·(d+1) bucket references addressed by meta, grouped
// table-major with the primary bucket first within each table (so
// Refs(meta)[j*(d+1)] is table j's primary bucket).
func (c *DynClient) Refs(meta lsh.Metadata) ([]BucketRef, error) {
	if len(meta) != c.p.Tables {
		return nil, fmt.Errorf("core: metadata has %d tables, params have %d", len(meta), c.p.Tables)
	}
	w := c.p.Width()
	refs := make([]BucketRef, 0, c.p.BucketsPerQuery())
	for j := 0; j < c.p.Tables; j++ {
		for delta := 0; delta <= c.p.ProbeRange; delta++ {
			refs = append(refs, BucketRef{Table: j, Pos: uint64(prfPos(c.tprfs[j], meta[j], delta, w))})
		}
	}
	return refs, nil
}

// seal masks a payload with a fresh random value:
// (G(r) ⊕ payload, Enc(k_r, r)). Randomness (r and the Enc IV) comes from
// the client's DRBG, and the G(r) expansion reuses the client's mask
// buffer, so sealing costs exactly two allocations: the two outputs.
func (c *DynClient) seal(payload []byte) (DynBucket, error) {
	var r [rSize]byte
	c.drbg.Fill(r[:])
	encR, err := crypt.EncFrom(c.keys.KR, r[:], c.drbg)
	if err != nil {
		return DynBucket{}, fmt.Errorf("core: seal: %w", err)
	}
	mask := c.grow(len(payload))
	c.gprf.StreamGInto(mask, r[:])
	masked := make([]byte, len(payload))
	crypt.XOR(masked, mask, payload)
	return DynBucket{Masked: masked, EncR: encR}, nil
}

// open recovers the plaintext payload of a bucket:
// r = Dec(k_r, EncR), payload = G(r) ⊕ Masked.
func (c *DynClient) open(b DynBucket) ([]byte, error) {
	r, err := crypt.Dec(c.keys.KR, b.EncR)
	if err != nil {
		return nil, fmt.Errorf("core: open bucket: %w", err)
	}
	mask := c.grow(len(b.Masked))
	c.gprf.StreamGInto(mask, r)
	payload := make([]byte, len(b.Masked))
	crypt.XOR(payload, mask, b.Masked)
	return payload, nil
}

// grow returns the client's mask buffer resized to n bytes.
func (c *DynClient) grow(n int) []byte {
	if cap(c.maskBuf) < n {
		c.maskBuf = make([]byte, n)
	}
	return c.maskBuf[:n]
}

// BuildDynamic constructs the dynamic index over the given items: the same
// cuckoo placement as the static scheme, followed by sealing every bucket —
// occupied buckets carry (L ‖ V), empty buckets carry the masked ⊥ marker,
// making all buckets indistinguishable.
func BuildDynamic(keys *crypt.KeySet, items []Item, p Params) (*DynIndex, *DynClient, error) {
	client, err := NewDynClient(keys, p, p.Seed)
	if err != nil {
		return nil, nil, err
	}
	pl, err := NewPlacement(keys, p)
	if err != nil {
		return nil, nil, err
	}
	if err := pl.Insert(items); err != nil {
		return nil, nil, err
	}
	placer := pl.placer
	w := placer.Width()
	idx := &DynIndex{params: p, width: w, tables: make([][]DynBucket, p.Tables)}
	empty := encodeDynPayload(bottomID, nil, p.Tables)
	for j := range idx.tables {
		idx.tables[j] = make([]DynBucket, w)
		for pos := 0; pos < w; pos++ {
			b, err := client.seal(empty)
			if err != nil {
				return nil, nil, err
			}
			idx.tables[j][pos] = b
		}
	}
	var sealErr error
	placer.Walk(func(table, pos int, id uint64) {
		if sealErr != nil {
			return
		}
		meta, _ := placer.MetaOf(id)
		b, err := client.seal(encodeDynPayload(id, meta, p.Tables))
		if err != nil {
			sealErr = err
			return
		}
		idx.tables[table][pos] = b
	})
	if sealErr != nil {
		return nil, nil, sealErr
	}
	return idx, client, nil
}

// fetchOpened fetches and opens all buckets for refs, deduplicating
// repeated references (PRF position collisions) so that a later batched
// store cannot overwrite a modified bucket with a stale copy.
type openedBatch struct {
	refs     []BucketRef // deduplicated
	payloads [][]byte    // plaintext payloads, aligned with refs
	// at maps each original slot index (table-major, probe-minor) to an
	// index into refs/payloads.
	at []int
}

func (c *DynClient) fetchOpened(store BucketStore, meta lsh.Metadata) (*openedBatch, error) {
	all, err := c.Refs(meta)
	if err != nil {
		return nil, err
	}
	batch := &openedBatch{at: make([]int, len(all))}
	seen := make(map[BucketRef]int, len(all))
	for i, r := range all {
		if j, ok := seen[r]; ok {
			batch.at[i] = j
			continue
		}
		seen[r] = len(batch.refs)
		batch.at[i] = len(batch.refs)
		batch.refs = append(batch.refs, r)
	}
	buckets, err := store.FetchBuckets(batch.refs)
	if err != nil {
		return nil, err
	}
	c.stats.Rounds++
	batch.payloads = make([][]byte, len(buckets))
	for i, b := range buckets {
		p, err := c.open(b)
		if err != nil {
			return nil, err
		}
		batch.payloads[i] = p
	}
	return batch, nil
}

// reseal seals every payload of the batch with fresh randomness and pushes
// the batch back, hiding which bucket actually changed.
func (c *DynClient) reseal(store BucketStore, batch *openedBatch) error {
	buckets := make([]DynBucket, len(batch.refs))
	for i, p := range batch.payloads {
		b, err := c.seal(p)
		if err != nil {
			return err
		}
		buckets[i] = b
	}
	c.stats.Rounds++
	return store.StoreBuckets(batch.refs, buckets)
}

// Search recovers the identifiers reachable through meta: the dynamic
// scheme's read path. The cloud returns the addressed buckets and the
// front end unmasks them locally; no bucket is modified.
func (c *DynClient) Search(store BucketStore, meta lsh.Metadata) ([]uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	batch, err := c.fetchOpened(store, meta)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, 0, len(batch.refs))
	seen := make(map[uint64]struct{}, len(batch.refs))
	for _, p := range batch.payloads {
		id, _, ok := decodeDynPayload(p, c.p.Tables)
		if !ok {
			return nil, fmt.Errorf("core: corrupt dynamic bucket payload")
		}
		if id == bottomID {
			continue
		}
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// Delete implements the secure deletion protocol (Sec. III-D): fetch the
// l·(d+1) buckets addressed by meta, replace the bucket holding id with the
// masked ⊥ marker, and re-mask every fetched bucket with fresh randomness
// before storing them back, which hides the emptied position.
func (c *DynClient) Delete(store BucketStore, id uint64, meta lsh.Metadata) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	batch, err := c.fetchOpened(store, meta)
	if err != nil {
		return err
	}
	target := -1
	for i, p := range batch.payloads {
		gotID, _, ok := decodeDynPayload(p, c.p.Tables)
		if !ok {
			return fmt.Errorf("core: corrupt dynamic bucket payload")
		}
		if gotID == id {
			target = i
			break
		}
	}
	if target < 0 {
		return fmt.Errorf("%w: %d", ErrNotIndexed, id)
	}
	batch.payloads[target] = encodeDynPayload(bottomID, nil, c.p.Tables)
	return c.reseal(store, batch)
}

// Insert implements the secure insertion protocol (Sec. III-D): fetch the
// addressed buckets; place (L ‖ V) into an empty one if available, else
// kick a random primary bucket and iteratively re-insert the kicked entry.
// Every fetched batch is fully re-masked before being stored, hiding both
// the inserted and the kicked positions.
func (c *DynClient) Insert(store BucketStore, id uint64, meta lsh.Metadata) error {
	if id == bottomID {
		return fmt.Errorf("core: identifier %d is reserved", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(store, id, meta)
}

// insertLocked is the insertion protocol body; c.mu must be held.
func (c *DynClient) insertLocked(store BucketStore, id uint64, meta lsh.Metadata) error {
	curID, curMeta := id, meta
	for loop := 0; loop <= c.p.MaxLoop; loop++ {
		batch, err := c.fetchOpened(store, curMeta)
		if err != nil {
			return err
		}
		empty := -1
		for i, p := range batch.payloads {
			gotID, _, ok := decodeDynPayload(p, c.p.Tables)
			if !ok {
				return fmt.Errorf("core: corrupt dynamic bucket payload")
			}
			if gotID == curID {
				return fmt.Errorf("%w: %d", ErrAlreadyIndexed, curID)
			}
			if gotID == bottomID && empty < 0 {
				empty = i
			}
		}
		if empty >= 0 {
			batch.payloads[empty] = encodeDynPayload(curID, curMeta, c.p.Tables)
			return c.reseal(store, batch)
		}
		// No room: kick a random primary bucket (slot j*(d+1) for table j).
		j := c.rng.Intn(c.p.Tables)
		slot := batch.at[j*(c.p.ProbeRange+1)]
		victimID, victimMeta, ok := decodeDynPayload(batch.payloads[slot], c.p.Tables)
		if !ok || victimID == bottomID {
			return fmt.Errorf("core: inconsistent kick state at table %d", j)
		}
		batch.payloads[slot] = encodeDynPayload(curID, curMeta, c.p.Tables)
		if err := c.reseal(store, batch); err != nil {
			return err
		}
		c.stats.Kicks++
		curID, curMeta = victimID, victimMeta
	}
	return fmt.Errorf("%w: dynamic insert exceeded %d kicks", ErrNeedRehash, c.p.MaxLoop)
}
