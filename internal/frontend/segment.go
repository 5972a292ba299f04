package frontend

import (
	"errors"
	"fmt"

	"pisd/internal/core"
	"pisd/internal/segstore"
)

// Streaming builds. BuildIndex materializes every upload at once; for
// million-profile populations SF instead streams batches through a
// SegmentBuilder, which spills bounded-size encrypted segments to disk as
// it goes. The parameter derivation is byte-for-byte the one prepare()
// uses for a monolithic build over the same population size, so trapdoors
// issued by this front end (or by a later AttachSegmented restart) address
// the segmented index exactly as they would the monolithic one.
//
// Streaming trades away the rehash() step of Algorithm 1: with uploads
// discarded after hashing, SF cannot recompute metadata under fresh LSH
// parameters. Instead the streamed index carries a cuckoo stash (the
// paper's l·(d+1)+stash trapdoor layout) sized as a function of the
// public population size, so kick-chain overflows park there rather than
// forcing a rebuild; only a population that overflows the stash too
// surfaces an error, and such a stream must be re-run with a different
// LSH seed.

// SegmentParams derives the index parameters a build over n uploads uses:
// prepare()'s indexParams with the streamed stash, shared by the streaming
// builder and the attach path.
func (f *Frontend) SegmentParams(n int) (core.Params, error) {
	if n < 1 {
		return core.Params{}, fmt.Errorf("frontend: population size must be >= 1, got %d", n)
	}
	return f.indexParams(n, streamStashSize(n)), nil
}

// streamStashSize is the stash capacity of a streamed index over n
// uploads: large enough that cuckoo overflow at the paper's τ = 0.8 load
// parks there instead of failing the (rehash-free) stream, small enough
// that the extra per-query bandwidth — every trapdoor addresses the whole
// stash — stays in the kilobytes. A function of the public n only, so it
// leaks nothing the index size does not.
func streamStashSize(n int) int { return 64 + n/4096 }

// SegmentBuilder streams upload batches into an on-disk segmented index.
// Batches must arrive with strictly increasing identifiers; each batch
// becomes one generation-0 segment. Not safe for concurrent use.
type SegmentBuilder struct {
	f *Frontend
	b *segstore.Builder
	p core.Params
}

// NewSegmentBuilder starts a streaming build over a population of exactly
// n uploads, writing segments into dir. n fixes the cuckoo capacity up
// front (it is public: the index size reveals it anyway), so batches can
// be placed before the stream ends.
func (f *Frontend) NewSegmentBuilder(n int, dir string) (*SegmentBuilder, error) {
	p, err := f.SegmentParams(n)
	if err != nil {
		return nil, err
	}
	b, err := segstore.NewBuilder(f.keys, p, dir)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	return &SegmentBuilder{f: f, b: b, p: p}, nil
}

// AddUploads hashes, places, and encrypts one batch. The returned
// ciphertexts align with uploads, ready to forward to the cloud as the
// batch's {S*}; the profiles themselves can then be discarded, which is
// the point of streaming. A core.ErrNeedRehash from placement means the
// stream must be re-run (see the package comment above).
func (sb *SegmentBuilder) AddUploads(uploads []Upload) ([][]byte, error) {
	if len(uploads) == 0 {
		return nil, nil
	}
	items, _, err := sb.f.prepare(uploads, false)
	if err != nil {
		return nil, err
	}
	if err := sb.b.Add(items); err != nil {
		if errors.Is(err, core.ErrNeedRehash) {
			return nil, fmt.Errorf("frontend: streaming build cannot rehash: %w", err)
		}
		return nil, fmt.Errorf("frontend: %w", err)
	}
	return sb.f.encryptProfileSlice(uploads)
}

// Finish encrypts and writes the remaining segments and marks the front
// end as serving the streamed index (trapdoor issue enabled). It returns
// the segment file paths.
func (sb *SegmentBuilder) Finish() ([]string, error) {
	paths, err := sb.b.Finish()
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	sb.f.params, sb.f.built, sb.f.rehashed = sb.p, true, false
	return paths, nil
}

// Placement exposes the build's live placement, the Rewriter a compactor
// needs for key-holder-side segment merges.
func (sb *SegmentBuilder) Placement() *core.Placement { return sb.b.Placement() }

// AttachSegmented marks the front end as serving a segmented index built
// earlier (by this or another process) over a population of n uploads with
// this front end's configuration and keys: the restart path for streaming
// deployments. Equivalent to RestoreIndexParams(SegmentParams(n)).
func (f *Frontend) AttachSegmented(n int) error {
	p, err := f.SegmentParams(n)
	if err != nil {
		return err
	}
	return f.RestoreIndexParams(p)
}
