// Package segstore is the segmented, persisted secure-index store that
// takes the cloud tier from "one in-RAM cuckoo placement saved as a single
// blob" to a streaming architecture for million-profile populations:
//
//   - a Builder consumes core.Item batches (fed by the chunked generator in
//     internal/dataset, so the population is never fully materialized),
//     runs them through one global streaming placement (core.Placement),
//     and spills one bounded-size encrypted segment per batch to disk;
//   - each segment is a full-width projection of the placement onto a
//     contiguous identifier range — the sharded build's construction
//     (DESIGN.md §9) applied to ranges — persisted in a versioned,
//     checksummed on-disk format written temp-file-then-rename, so a crash
//     mid-write can never leave a half-written segment that a reload
//     trusts;
//   - a Store serves SecRec by fanning each trapdoor across the live
//     segments, loading exactly the addressed bucket ranges from disk on
//     demand (never whole segments) and merging recovered identifiers
//     byte-identically to the monolithic index's discovery order;
//   - a Compactor merges small segments into larger generations under a
//     concurrency limit, re-projecting merged ranges through a key-holding
//     Rewriter (re-masking buckets requires the front end's keys — the
//     cloud cannot distinguish padding from payload, which is exactly
//     Theorem 1) and atomically swapping results into the live set while
//     queries continue.
//
// The package also owns the sealed-file envelope (magic, version, kind,
// length, SHA-256 trailer) that the cloud server's state persistence
// reuses, and the ErrCorruptState error that every truncated or bit-flipped
// state file surfaces as.
//
// Leakage: segment boundaries are a function of the public population size
// and batch size only, each segment file is individually indistinguishable
// from random by the index security argument, and the compaction schedule
// depends only on segment count and configuration — see DESIGN.md §14.
package segstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pisd/internal/binfmt"
)

// ErrCorruptState reports a state file (segment or cloud persistence) that
// failed structural validation or checksum verification: truncation, bit
// flips, or a foreign file. Loads wrap it so callers can distinguish
// corruption from absence.
var ErrCorruptState = errors.New("segstore: corrupt state file")

// SealKind tags the payload type of a sealed state file, so a file renamed
// across roles is rejected instead of misparsed.
type SealKind uint32

// Sealed payload kinds.
const (
	KindSegment  SealKind = 1 // one encrypted index segment
	KindIndex    SealKind = 2 // cloud persistence: static index blob
	KindDynIndex SealKind = 3 // cloud persistence: dynamic index blob
	KindProfiles SealKind = 4 // cloud persistence: encrypted profile set
	KindImages   SealKind = 5 // cloud persistence: encrypted image store
)

const (
	sealMagic      = 0x50534C44 // "PSLD"
	sealVersion    = 1
	sealHeaderSize = 4 + 4 + 4 + 8 // magic, version, kind, payload length
	sealSumSize    = sha256.Size
)

// sealHeader encodes the fixed envelope header.
func sealHeader(kind SealKind, payloadLen int64) []byte {
	h := make([]byte, sealHeaderSize)
	binary.BigEndian.PutUint32(h[0:], sealMagic)
	binary.BigEndian.PutUint32(h[4:], sealVersion)
	binary.BigEndian.PutUint32(h[8:], uint32(kind))
	binary.BigEndian.PutUint64(h[12:], uint64(payloadLen))
	return h
}

// parseSealHeader checks the envelope header at the front of a sealed file
// of size bytes and returns its payload length.
func parseSealHeader(h []byte, kind SealKind, size int64) (int64, error) {
	if size < sealHeaderSize+sealSumSize {
		return 0, fmt.Errorf("%w: truncated (%d bytes)", ErrCorruptState, size)
	}
	r := binfmt.NewReader(h)
	if r.U32BE() != sealMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorruptState)
	}
	if v := r.U32BE(); v != sealVersion {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrCorruptState, v)
	}
	if k := SealKind(r.U32BE()); k != kind {
		return 0, fmt.Errorf("%w: kind %d, want %d", ErrCorruptState, k, kind)
	}
	if n := r.U64BE(); n != uint64(size-sealHeaderSize-sealSumSize) {
		return 0, fmt.Errorf("%w: payload length %d does not match file size", ErrCorruptState, n)
	}
	return size - sealHeaderSize - sealSumSize, nil
}

// WriteSealedFile atomically writes path as a sealed envelope around the
// concatenated sections: header, payload, SHA-256 trailer over both. The
// bytes land in a temp file in the same directory which is fsynced and
// renamed into place, so a crash at any point leaves either the old file
// or the new one — never a torn mix.
func WriteSealedFile(path string, kind SealKind, sections ...[]byte) error {
	var payloadLen int64
	for _, s := range sections {
		payloadLen += int64(len(s))
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-seal-*")
	if err != nil {
		return fmt.Errorf("segstore: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()

	sum := sha256.New()
	w := io.MultiWriter(tmp, sum)
	if _, err := w.Write(sealHeader(kind, payloadLen)); err != nil {
		return fmt.Errorf("segstore: write %s: %w", path, err)
	}
	for _, s := range sections {
		if _, err := w.Write(s); err != nil {
			return fmt.Errorf("segstore: write %s: %w", path, err)
		}
	}
	if _, err := tmp.Write(sum.Sum(nil)); err != nil {
		return fmt.Errorf("segstore: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("segstore: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("segstore: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("segstore: rename %s: %w", path, err)
	}
	tmpName = "" // renamed away; nothing to clean up
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a completed rename survives a crash.
// Failure is non-fatal: the rename itself already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// ReadSealedFile reads and fully verifies a sealed file, returning its
// payload. Structural damage, a kind mismatch or a checksum failure return
// an error wrapping ErrCorruptState; a missing file returns the underlying
// fs.ErrNotExist.
func ReadSealedFile(path string, kind SealKind) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := parseSealed(data, kind)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}

// parseSealed validates a whole in-memory sealed envelope.
func parseSealed(data []byte, kind SealKind) ([]byte, error) {
	if _, err := parseSealHeader(data, kind, int64(len(data))); err != nil {
		return nil, err
	}
	body := data[:len(data)-sealSumSize]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[len(data)-sealSumSize:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptState)
	}
	return data[sealHeaderSize : len(data)-sealSumSize], nil
}

// verifySealedStream checks an open sealed file end to end with a bounded
// buffer (no whole-file read), returning the payload offset and length for
// subsequent random access. The file position is left undefined; use
// ReadAt afterwards.
func verifySealedStream(f *os.File, kind SealKind) (payloadOff, payloadLen int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := st.Size()
	var header [sealHeaderSize]byte
	if size >= sealHeaderSize {
		if _, err := f.ReadAt(header[:], 0); err != nil {
			return 0, 0, err
		}
	}
	if payloadLen, err = parseSealHeader(header[:], kind, size); err != nil {
		return 0, 0, err
	}
	sum := sha256.New()
	if _, err := io.Copy(sum, io.NewSectionReader(f, 0, size-sealSumSize)); err != nil {
		return 0, 0, err
	}
	var want [sealSumSize]byte
	if _, err := f.ReadAt(want[:], size-sealSumSize); err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(sum.Sum(nil), want[:]) {
		return 0, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptState)
	}
	return sealHeaderSize, payloadLen, nil
}
