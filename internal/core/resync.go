package core

import (
	"encoding/binary"
	"fmt"
)

// This file is the dynamic scheme's anti-entropy surface: the primitives a
// replicated deployment uses to bring a lagging or restarted replica of a
// bucket store back in sync with a healthy peer. Everything here is built
// from the scheme's existing seal/open machinery, so the cloud-visible
// access pattern of a repair is exactly the bucket-read/reseal pattern of
// normal churn (see DESIGN.md §17): read a batch of buckets from the
// source, re-mask every one of them with fresh randomness, store the batch
// to the destination. Neither store learns which buckets differed.

// Clone returns a deep copy of the dynamic index. Replicated deployments
// install one clone per replica so that the replicas' bucket arrays evolve
// independently, as they would on physically separate servers.
func (x *DynIndex) Clone() *DynIndex {
	out := &DynIndex{params: x.params, width: x.width, tables: make([][]DynBucket, len(x.tables))}
	for j, tbl := range x.tables {
		out.tables[j] = make([]DynBucket, len(tbl))
		for pos, b := range tbl {
			out.tables[j][pos] = b.clone()
		}
	}
	return out
}

// NewShell returns a dynamic index of the client's shape with every bucket
// freshly sealed to the ⊥ marker: the state a brand-new replica starts
// from before a resync copies the real buckets over. The shell is
// indistinguishable from any other dynamic index to the cloud — every
// bucket is a well-formed (G(r) ⊕ ⊥, Enc(k_r, r)) pair.
func (c *DynClient) NewShell() (*DynIndex, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.p.Width()
	idx := &DynIndex{params: c.p, width: w, tables: make([][]DynBucket, c.p.Tables)}
	empty := encodeDynPayload(bottomID, nil, c.p.Tables)
	for j := range idx.tables {
		idx.tables[j] = make([]DynBucket, w)
		for pos := 0; pos < w; pos++ {
			b, err := c.seal(empty)
			if err != nil {
				return nil, fmt.Errorf("core: shell: %w", err)
			}
			idx.tables[j][pos] = b
		}
	}
	return idx, nil
}

// Fork returns an independent client over the same keys and parameters,
// with its own randomness state. A background repairer uses a fork so its
// long-running resyncs never contend on — or deadlock against — the lock
// serializing the foreground client's churn protocol.
func (c *DynClient) Fork() (*DynClient, error) {
	c.mu.Lock()
	var seed [8]byte
	c.drbg.Fill(seed[:])
	keys, p := c.keys, c.p
	c.mu.Unlock()
	return NewDynClient(keys, p, int64(binary.LittleEndian.Uint64(seed[:])))
}

// Width is the bucket positions per table of the client's index shape:
// the range ResyncRange and OpenedRange address.
func (c *DynClient) Width() int { return c.p.Width() }

// ResyncRange re-syncs the buckets at positions [lo, hi) of every table
// from src into dst: fetch the range from src, open and re-seal every
// bucket with fresh randomness, store the range to dst. The position range
// is data-independent (a plain sweep), so the only thing either store
// learns is that a repair of that range happened.
func (c *DynClient) ResyncRange(src, dst BucketStore, lo, hi uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := uint64(c.p.Width()); hi > w {
		hi = w
	}
	if lo >= hi {
		return nil
	}
	refs := make([]BucketRef, 0, int(hi-lo)*c.p.Tables)
	for j := 0; j < c.p.Tables; j++ {
		for pos := lo; pos < hi; pos++ {
			refs = append(refs, BucketRef{Table: j, Pos: pos})
		}
	}
	buckets, err := src.FetchBuckets(refs)
	if err != nil {
		return fmt.Errorf("core: resync fetch [%d,%d): %w", lo, hi, err)
	}
	if len(buckets) != len(refs) {
		return fmt.Errorf("core: resync fetch [%d,%d): %d buckets for %d refs", lo, hi, len(buckets), len(refs))
	}
	c.stats.Rounds++
	out := make([]DynBucket, len(buckets))
	for i, b := range buckets {
		payload, err := c.open(b)
		if err != nil {
			return fmt.Errorf("core: resync open: %w", err)
		}
		if out[i], err = c.seal(payload); err != nil {
			return fmt.Errorf("core: resync seal: %w", err)
		}
	}
	c.stats.Rounds++
	if err := dst.StoreBuckets(refs, out); err != nil {
		return fmt.Errorf("core: resync store [%d,%d): %w", lo, hi, err)
	}
	return nil
}

// OpenedRange fetches the buckets at positions [lo, hi) of every table
// from store and returns their opened payload bytes in the same
// table-major order ResyncRange uses. It is the verification primitive
// for replica convergence: replicas that re-masked independently hold
// different bucket BYTES, but equivalent replicas must open to identical
// payloads position for position. Only the trusted front end can run
// this — opening needs the keys.
func (c *DynClient) OpenedRange(store BucketStore, lo, hi uint64) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := uint64(c.p.Width()); hi > w {
		hi = w
	}
	if lo >= hi {
		return nil, nil
	}
	refs := make([]BucketRef, 0, int(hi-lo)*c.p.Tables)
	for j := 0; j < c.p.Tables; j++ {
		for pos := lo; pos < hi; pos++ {
			refs = append(refs, BucketRef{Table: j, Pos: pos})
		}
	}
	buckets, err := store.FetchBuckets(refs)
	if err != nil {
		return nil, fmt.Errorf("core: opened range fetch [%d,%d): %w", lo, hi, err)
	}
	if len(buckets) != len(refs) {
		return nil, fmt.Errorf("core: opened range [%d,%d): %d buckets for %d refs", lo, hi, len(buckets), len(refs))
	}
	out := make([][]byte, len(buckets))
	for i, b := range buckets {
		payload, err := c.open(b)
		if err != nil {
			return nil, fmt.Errorf("core: opened range table %d pos %d: %w", refs[i].Table, refs[i].Pos, err)
		}
		out[i] = payload
	}
	return out, nil
}
