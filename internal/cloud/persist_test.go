package cloud

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/segstore"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	idx, keys, p, metas := buildIndex(t, 150)
	s := New()
	s.SetIndex(idx)
	for i := 0; i < 150; i++ {
		s.PutProfile(uint64(i+1), []byte{byte(i), byte(i >> 8)})
	}
	s.StoreImages(7, []byte("enc-a"), []byte("enc-b"))
	s.StoreImages(9, []byte("enc-c"))

	dir := t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}

	restored := New()
	if err := restored.LoadFrom(dir); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
	if restored.NumProfiles() != 150 {
		t.Fatalf("restored %d profiles", restored.NumProfiles())
	}
	if got := restored.Images(7); len(got) != 2 || string(got[0]) != "enc-a" {
		t.Errorf("restored images %q", got)
	}
	if restored.IndexSizeBytes() != idx.SizeBytes() {
		t.Error("restored index size differs")
	}
	// Discovery against the restored server returns identical results.
	td, err := core.GenTpdr(keys, metas[10], p)
	if err != nil {
		t.Fatal(err)
	}
	idsA, profA, err := s.SecRec(td)
	if err != nil {
		t.Fatal(err)
	}
	idsB, profB, err := restored.SecRec(td)
	if err != nil {
		t.Fatal(err)
	}
	if len(idsA) != len(idsB) {
		t.Fatalf("restored SecRec %d ids vs %d", len(idsB), len(idsA))
	}
	for i := range idsA {
		if idsA[i] != idsB[i] || string(profA[i]) != string(profB[i]) {
			t.Fatal("restored SecRec result differs")
		}
	}
}

func TestSaveLoadDynamicIndex(t *testing.T) {
	keys, err := crypt.GenDeterministic("persist-dyn", 3)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Tables: 3, Capacity: 100, ProbeRange: 3, MaxLoop: 100, Seed: 1}
	items := []core.Item{{ID: 1, Meta: []uint64{1, 2, 3}}, {ID: 2, Meta: []uint64{4, 5, 6}}}
	dyn, client, err := core.BuildDynamic(keys, items, p)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	s.SetDynIndex(dyn)
	dir := t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.LoadFrom(dir); err != nil {
		t.Fatal(err)
	}
	ids, err := client.Search(restored, []uint64{1, 2, 3})
	if err != nil {
		t.Fatalf("search on restored server: %v", err)
	}
	found := false
	for _, id := range ids {
		if id == 1 {
			found = true
		}
	}
	if !found {
		t.Error("restored dynamic index lost item 1")
	}
}

func TestSaveRemovesStaleIndexFiles(t *testing.T) {
	idx, _, _, _ := buildIndex(t, 50)
	s := New()
	s.SetIndex(idx)
	dir := t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	// Drop the index and save again: the stale file must vanish.
	s.SetIndex(nil)
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, fileIndex)); !os.IsNotExist(err) {
		t.Error("stale index file survived")
	}
	restored := New()
	if err := restored.LoadFrom(dir); err != nil {
		t.Fatal(err)
	}
	if restored.IndexSizeBytes() != 0 {
		t.Error("restored server has an index")
	}
}

func TestLoadFromEmptyDir(t *testing.T) {
	s := New()
	if err := s.LoadFrom(t.TempDir()); err != nil {
		t.Fatalf("LoadFrom empty dir: %v", err)
	}
	if s.NumProfiles() != 0 {
		t.Error("profiles from nowhere")
	}
}

func TestLoadRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	cases := []string{fileIndex, fileDynIndex, fileProfiles, fileImages}
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			d := t.TempDir()
			if err := os.WriteFile(filepath.Join(d, name), []byte("garbage!"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := New().LoadFrom(d); !errors.Is(err, ErrCorruptState) {
				t.Errorf("corrupt %s: error = %v, want ErrCorruptState", name, err)
			}
		})
	}
	_ = dir
}

func TestProfilesCodecTruncation(t *testing.T) {
	s := New()
	s.PutProfile(1, []byte{1, 2, 3})
	dir := t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileProfiles)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New().LoadFrom(dir); err == nil {
		t.Error("truncated profiles file accepted")
	}
	// Trailing junk must also be rejected.
	if err := os.WriteFile(path, append(blob, 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New().LoadFrom(dir); err == nil {
		t.Error("profiles file with trailing bytes accepted")
	}
}

// TestLoadBoundsDeclaredCounts feeds state files whose seal is intact but
// whose payload declares far more entries than it holds. The SHA-256 seal
// is a checksum, not a MAC, so such a file reaches the decoder; a count
// must be checked against the bytes behind it before it sizes anything.
func TestLoadBoundsDeclaredCounts(t *testing.T) {
	be := binary.BigEndian
	cases := []struct {
		name    string
		kind    segstore.SealKind
		payload []byte
	}{
		// 2^20 profiles declared in a 12-byte payload.
		{fileProfiles, segstore.KindProfiles, be.AppendUint64(be.AppendUint32(nil, profilesMagic), 1<<20)},
		// One image entry declaring 2^22 blobs, then one blob length.
		{fileImages, segstore.KindImages, be.AppendUint32(be.AppendUint32(be.AppendUint64(be.AppendUint64(be.AppendUint32(nil, imagesMagic), 1), 9), 1<<22), 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := segstore.WriteSealedFile(filepath.Join(dir, c.name), c.kind, c.payload); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := New().LoadFrom(dir)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorruptState) {
				t.Fatalf("%d-byte payload loaded as %v, want ErrCorruptState", len(c.payload), err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("rejecting a %d-byte payload allocated %d bytes, want under 1 MiB", len(c.payload), got)
			}
		})
	}
}

// FuzzStateDecode throws arbitrary payloads at the profile and image store
// decoders, which read whatever a state file's intact seal wraps. They
// must never panic; a payload either is refused or decodes to a store that
// re-encodes and decodes back to itself (its bytes may differ only in the
// entry order of a map and in collapsed duplicate ids).
func FuzzStateDecode(f *testing.F) {
	s := New()
	s.PutProfile(1, []byte{1, 2, 3})
	s.PutProfile(9, nil)
	s.StoreImages(1, []byte("blob"), nil)
	s.StoreImages(2)
	f.Add(encodeProfiles(s.profiles))
	f.Add(encodeImages(s.images))
	f.Add(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, profilesMagic), 1<<20))
	f.Add(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, imagesMagic), 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := decodeProfiles(data); err == nil {
			again, err := decodeProfiles(encodeProfiles(p))
			if err != nil || !reflect.DeepEqual(again, p) {
				t.Fatalf("accepted profiles do not round-trip: %v", err)
			}
		}
		if im, err := decodeImages(data); err == nil {
			again, err := decodeImages(encodeImages(im))
			if err != nil || !reflect.DeepEqual(again, im) {
				t.Fatalf("accepted images do not round-trip: %v", err)
			}
		}
	})
}
