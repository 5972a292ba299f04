package cloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"pisd/internal/binfmt"
	"pisd/internal/core"
	"pisd/internal/segstore"
)

// Persistence: the cloud server can save its entire state — secure
// index(es), encrypted profiles, encrypted images — to a directory and
// reload it on restart. Everything written is ciphertext or padding, so
// the state directory is exactly as sensitive as the server's memory:
// opaque to anyone without the front end's keys.
//
// Every file is a segstore sealed envelope (magic, version, kind, length,
// SHA-256 trailer) written temp-file-then-rename: a crash mid-save leaves
// the previous file intact, never a torn one, and any truncation or bit
// flip fails the load with ErrCorruptState instead of decoding garbage.

// ErrCorruptState reports a damaged state file on load; it is
// segstore.ErrCorruptState, shared across everything the system persists.
var ErrCorruptState = segstore.ErrCorruptState

// State file names inside the directory.
const (
	fileIndex    = "index.bin"
	fileDynIndex = "dynindex.bin"
	fileProfiles = "profiles.bin"
	fileImages   = "images.bin"
)

const profilesMagic = 0x50505246 // "PPRF"
const imagesMagic = 0x50494D47   // "PIMG"

// SaveTo writes the server state into dir (created if absent), each file
// atomically. Files for absent components are removed so a reload
// reflects the live state. A segmented store is not copied: it already
// lives on disk in its own directory.
func (s *Server) SaveTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cloud: save: %w", err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	if s.idx != nil {
		blob, err := s.idx.MarshalBinary()
		if err != nil {
			return fmt.Errorf("cloud: save index: %w", err)
		}
		if err := segstore.WriteSealedFile(filepath.Join(dir, fileIndex), segstore.KindIndex, blob); err != nil {
			return fmt.Errorf("cloud: save index: %w", err)
		}
	} else {
		removeIfExists(filepath.Join(dir, fileIndex))
	}
	if s.dyn != nil {
		blob, err := s.dyn.MarshalBinary()
		if err != nil {
			return fmt.Errorf("cloud: save dynamic index: %w", err)
		}
		if err := segstore.WriteSealedFile(filepath.Join(dir, fileDynIndex), segstore.KindDynIndex, blob); err != nil {
			return fmt.Errorf("cloud: save dynamic index: %w", err)
		}
	} else {
		removeIfExists(filepath.Join(dir, fileDynIndex))
	}

	if err := segstore.WriteSealedFile(filepath.Join(dir, fileProfiles), segstore.KindProfiles, encodeProfiles(s.profiles)); err != nil {
		return fmt.Errorf("cloud: save profiles: %w", err)
	}
	if err := segstore.WriteSealedFile(filepath.Join(dir, fileImages), segstore.KindImages, encodeImages(s.images)); err != nil {
		return fmt.Errorf("cloud: save images: %w", err)
	}
	return nil
}

// LoadFrom replaces the server state with the contents of dir. Missing
// index files leave the corresponding index uninstalled; missing profile
// or image files yield empty stores. Damaged files fail with an error
// wrapping ErrCorruptState.
func (s *Server) LoadFrom(dir string) error {
	var idx *core.Index
	if blob, err := segstore.ReadSealedFile(filepath.Join(dir, fileIndex), segstore.KindIndex); err == nil {
		idx = &core.Index{}
		if err := idx.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("cloud: load index: %w: %v", ErrCorruptState, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cloud: load index: %w", err)
	}
	var dyn *core.DynIndex
	if blob, err := segstore.ReadSealedFile(filepath.Join(dir, fileDynIndex), segstore.KindDynIndex); err == nil {
		dyn = &core.DynIndex{}
		if err := dyn.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("cloud: load dynamic index: %w: %v", ErrCorruptState, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cloud: load dynamic index: %w", err)
	}

	profiles := make(map[uint64][]byte)
	if blob, err := segstore.ReadSealedFile(filepath.Join(dir, fileProfiles), segstore.KindProfiles); err == nil {
		profiles, err = decodeProfiles(blob)
		if err != nil {
			return fmt.Errorf("cloud: load profiles: %w: %v", ErrCorruptState, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cloud: load profiles: %w", err)
	}
	images := make(map[uint64][][]byte)
	if blob, err := segstore.ReadSealedFile(filepath.Join(dir, fileImages), segstore.KindImages); err == nil {
		images, err = decodeImages(blob)
		if err != nil {
			return fmt.Errorf("cloud: load images: %w: %v", ErrCorruptState, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cloud: load images: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx = idx
	s.dyn = dyn
	s.profiles = profiles
	s.images = images
	return nil
}

func removeIfExists(path string) {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// Removal failure only means a stale file may survive; surfaced
		// on the next load as harmless extra state.
		_ = err
	}
}

// The profile and image stores are big-endian: a magic, a u64 entry count,
// then per entry a u64 user id and either one length-prefixed ciphertext
// (profiles) or a u32 blob count and that many length-prefixed blobs
// (images). Lengths are u32.

func encodeProfiles(profiles map[uint64][]byte) []byte {
	out := be.AppendUint32(nil, profilesMagic)
	out = be.AppendUint64(out, uint64(len(profiles)))
	for id, ct := range profiles {
		out = be.AppendUint64(out, id)
		out = appendBlob(out, ct)
	}
	return out
}

func decodeProfiles(data []byte) (map[uint64][]byte, error) {
	r := binfmt.NewReader(data)
	if r.U32BE() != profilesMagic {
		return nil, fmt.Errorf("bad profiles file header")
	}
	n := r.Within(r.U64BE(), 8+4)
	out := make(map[uint64][]byte, n)
	for range n {
		id := r.U64BE()
		out[id] = readBlob(&r)
	}
	return out, stateEnd(&r, "profiles")
}

func encodeImages(images map[uint64][][]byte) []byte {
	out := be.AppendUint32(nil, imagesMagic)
	out = be.AppendUint64(out, uint64(len(images)))
	for id, blobs := range images {
		out = be.AppendUint64(out, id)
		out = be.AppendUint32(out, uint32(len(blobs)))
		for _, b := range blobs {
			out = appendBlob(out, b)
		}
	}
	return out
}

func decodeImages(data []byte) (map[uint64][][]byte, error) {
	r := binfmt.NewReader(data)
	if r.U32BE() != imagesMagic {
		return nil, fmt.Errorf("bad images file header")
	}
	n := r.Within(r.U64BE(), 8+4)
	out := make(map[uint64][][]byte, n)
	for range n {
		id := r.U64BE()
		blobs := make([][]byte, r.Within(uint64(r.U32BE()), 4))
		for k := range blobs {
			blobs[k] = readBlob(&r)
		}
		out[id] = blobs
	}
	return out, stateEnd(&r, "images")
}

var be = binary.BigEndian

func appendBlob(dst, b []byte) []byte {
	return append(be.AppendUint32(dst, uint32(len(b))), b...)
}

// readBlob reads a length-prefixed byte string as a copy, so the store
// does not pin the whole file buffer.
func readBlob(r *binfmt.Reader) []byte {
	return append([]byte(nil), r.Take(int(r.U32BE()))...)
}

func stateEnd(r *binfmt.Reader, what string) error {
	switch {
	case r.Bad():
		return fmt.Errorf("%s file truncated or declares more entries than it holds", what)
	case r.Len() != 0:
		return fmt.Errorf("trailing bytes in %s file", what)
	}
	return nil
}
