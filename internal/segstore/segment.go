package segstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"pisd/internal/binfmt"
	"pisd/internal/core"
)

// segHeaderSize is the segment-specific header placed ahead of the index
// blob inside the sealed payload: generation, reserved, lo, hi.
const segHeaderSize = 4 + 4 + 8 + 8

// SegmentExt is the filename extension of live segment files.
const SegmentExt = ".seg"

// Segment is one on-disk encrypted index segment: a full-width projection
// of the global placement onto the identifier range [Lo, Hi). Buckets are
// read from disk on demand; the resident footprint is a file descriptor
// and the shape. Lifetime is reference-counted so the compactor can retire
// a segment while reads against it are still in flight.
type Segment struct {
	path string
	f    *os.File
	// bodyOff is the file offset of the index blob (the MarshalBinary
	// encoding, whose header IndexShape offsets are relative to).
	bodyOff int64
	size    int64

	shape core.IndexShape
	gen   uint32
	lo    uint64 // inclusive
	hi    uint64 // exclusive

	// refs counts the store's own reference (1 while live) plus one per
	// in-flight read snapshot; the file closes when it reaches zero.
	refs    atomic.Int64
	retired atomic.Bool
}

// SegmentInfo is a segment's public description.
type SegmentInfo struct {
	Path       string
	Generation uint32
	Lo, Hi     uint64
	Items      int
	Bytes      int64
}

// Info describes the segment.
func (sg *Segment) Info() SegmentInfo {
	return SegmentInfo{
		Path:       sg.path,
		Generation: sg.gen,
		Lo:         sg.lo,
		Hi:         sg.hi,
		Items:      sg.shape.N,
		Bytes:      sg.size,
	}
}

// segmentFileName derives the canonical file name for a segment. Zero-padded
// hex keeps a directory listing sorted by range.
func segmentFileName(gen uint32, lo, hi uint64) string {
	return fmt.Sprintf("seg-%016x-%016x-g%d%s", lo, hi, gen, SegmentExt)
}

// WriteSegmentFile seals idx as the segment [lo, hi) at the given
// generation into dir, atomically, and returns the file path.
func WriteSegmentFile(dir string, gen uint32, lo, hi uint64, idx *core.Index) (string, error) {
	if lo >= hi {
		return "", fmt.Errorf("segstore: empty segment range [%d, %d)", lo, hi)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		return "", fmt.Errorf("segstore: encode segment: %w", err)
	}
	header := make([]byte, segHeaderSize)
	binary.BigEndian.PutUint32(header[0:], gen)
	binary.BigEndian.PutUint64(header[8:], lo)
	binary.BigEndian.PutUint64(header[16:], hi)
	path := filepath.Join(dir, segmentFileName(gen, lo, hi))
	if err := WriteSealedFile(path, KindSegment, header, blob); err != nil {
		return "", err
	}
	return path, nil
}

// OpenSegment opens and fully verifies one segment file (structure,
// checksum, index header), keeping the descriptor for on-demand bucket
// reads. Damage of any kind returns an error wrapping ErrCorruptState.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sg, err := openSegmentFile(f, path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sg, nil
}

func openSegmentFile(f *os.File, path string) (*Segment, error) {
	payloadOff, payloadLen, err := verifySealedStream(f, KindSegment)
	if err != nil {
		return nil, err
	}
	if payloadLen < segHeaderSize+core.IndexHeaderSize {
		return nil, fmt.Errorf("%w: segment payload %d bytes", ErrCorruptState, payloadLen)
	}
	var header [segHeaderSize + core.IndexHeaderSize]byte
	if _, err := f.ReadAt(header[:], payloadOff); err != nil {
		return nil, err
	}
	r := binfmt.NewReader(header[:])
	gen := r.U32BE()
	r.Take(4) // reserved
	lo, hi := r.U64BE(), r.U64BE()
	if lo >= hi {
		return nil, fmt.Errorf("%w: segment range [%d, %d)", ErrCorruptState, lo, hi)
	}
	shape, err := core.ParseIndexHeader(r.Rest())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptState, err)
	}
	if want := segHeaderSize + shape.EncodedSize(); want != payloadLen {
		return nil, fmt.Errorf("%w: segment payload %d bytes, shape needs %d", ErrCorruptState, payloadLen, want)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sg := &Segment{
		path:    path,
		f:       f,
		bodyOff: payloadOff + segHeaderSize,
		size:    st.Size(),
		shape:   shape,
		gen:     gen,
		lo:      lo,
		hi:      hi,
	}
	sg.refs.Store(1) // the owner's reference
	return sg, nil
}

// readBucket reads bucket (table, pos) into dst (BucketSize bytes). Bounds
// are the caller's responsibility (validated once per trapdoor).
func (sg *Segment) readBucket(table int, pos uint64, dst []byte) error {
	_, err := sg.f.ReadAt(dst, sg.bodyOff+sg.shape.BucketOffset(table, pos))
	return err
}

// readStash reads stash slot pos into dst.
func (sg *Segment) readStash(pos int, dst []byte) error {
	_, err := sg.f.ReadAt(dst, sg.bodyOff+sg.shape.StashOffset(pos))
	return err
}

// acquire takes a read reference. The caller must already hold a
// reference-protected view (the store's lock) guaranteeing liveness.
func (sg *Segment) acquire() { sg.refs.Add(1) }

// release drops a reference; the last one out closes the file.
func (sg *Segment) release() {
	if sg.refs.Add(-1) == 0 {
		sg.f.Close()
	}
}

// retire drops the owner's reference and unlinks the file; in-flight reads
// keep the open descriptor alive until they release. Idempotent.
func (sg *Segment) retire(unlink bool) {
	if sg.retired.Swap(true) {
		return
	}
	if unlink {
		os.Remove(sg.path)
	}
	sg.release()
}

// Close releases the owner's reference without unlinking.
func (sg *Segment) Close() error {
	sg.retire(false)
	return nil
}
