package cloud

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/lsh"
	"pisd/internal/segstore"
)

// TestSegmentBackedServerMatchesMonolithic pins the server-level
// equivalence: a server over a segmented store returns byte-identical
// identifiers AND encrypted profiles to a server over the monolithic
// in-RAM index, for single queries and batches.
func TestSegmentBackedServerMatchesMonolithic(t *testing.T) {
	const n, batch = 1800, 400
	keys, err := crypt.GenDeterministic("cloud-seg-test", 4)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]lsh.Metadata, n)
	items := make([]core.Item, n)
	for i := range metas {
		// Colliding values so answers carry several identifiers.
		m := lsh.Metadata{uint64(i / 4), uint64(i * 7), uint64(i / 6), uint64(i * 29)}
		metas[i] = m
		items[i] = core.Item{ID: uint64(i + 1), Meta: m}
	}
	p := core.Params{Tables: 4, Capacity: core.CapacityFor(n, 0.8), ProbeRange: 3, MaxLoop: 200, Seed: 1, StashSize: 8}
	idx, err := core.Build(keys, items, p)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	b, err := segstore.NewBuilder(keys, p, dir)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += batch {
		if err := b.Add(items[lo:min(lo+batch, n)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	mono, seg := New(), New()
	mono.SetIndex(idx)
	seg.SetSegmentStore(st)
	for i := 0; i < n; i++ {
		ct := []byte{byte(i), byte(i >> 8), 0xAB}
		mono.PutProfile(uint64(i+1), ct)
		seg.PutProfile(uint64(i+1), ct)
	}
	if seg.IndexSizeBytes() != int(st.Bytes()) {
		t.Fatalf("segment-backed IndexSizeBytes = %d, store reports %d", seg.IndexSizeBytes(), st.Bytes())
	}

	var tds []*core.Trapdoor
	for q := 0; q < 50; q++ {
		td, err := core.GenTpdr(keys, metas[(q*37)%n], p)
		if err != nil {
			t.Fatal(err)
		}
		tds = append(tds, td)
		wantIDs, wantProfiles, err := mono.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, gotProfiles, err := seg.SecRec(td)
		if err != nil {
			t.Fatalf("segment-backed SecRec: %v", err)
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("query %d: %d ids segmented, %d monolithic", q, len(gotIDs), len(wantIDs))
		}
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("query %d: id %d differs: %d vs %d", q, i, gotIDs[i], wantIDs[i])
			}
			if string(gotProfiles[i]) != string(wantProfiles[i]) {
				t.Fatalf("query %d: ciphertext %d differs", q, i)
			}
		}
	}

	wantIDs, wantProfiles, err := mono.SecRecBatch(context.Background(), tds)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotProfiles, err := seg.SecRecBatch(context.Background(), tds)
	if err != nil {
		t.Fatalf("segment-backed SecRecBatch: %v", err)
	}
	for q := range tds {
		if len(gotIDs[q]) != len(wantIDs[q]) {
			t.Fatalf("batch query %d: %d ids segmented, %d monolithic", q, len(gotIDs[q]), len(wantIDs[q]))
		}
		for i := range wantIDs[q] {
			if gotIDs[q][i] != wantIDs[q][i] || string(gotProfiles[q][i]) != string(wantProfiles[q][i]) {
				t.Fatalf("batch query %d result %d differs", q, i)
			}
		}
	}
}

// TestLoadRejectsFlippedBit saves full server state and flips a single
// byte in each state file in turn: every load must fail with
// ErrCorruptState, and restoring the pristine bytes must load cleanly.
func TestLoadRejectsFlippedBit(t *testing.T) {
	idx, keys, p, _ := buildIndex(t, 120)
	s := New()
	s.SetIndex(idx)
	items := []core.Item{{ID: 1, Meta: []uint64{1, 2, 3, 4}}, {ID: 2, Meta: []uint64{5, 6, 7, 8}}}
	dyn, _, err := core.BuildDynamic(keys, items, p)
	if err != nil {
		t.Fatal(err)
	}
	s.SetDynIndex(dyn)
	for i := 0; i < 40; i++ {
		s.PutProfile(uint64(i+1), []byte{byte(i), 0x5A})
	}
	s.StoreImages(3, []byte("enc-img"))

	dir := t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{fileIndex, fileDynIndex, fileProfiles, fileImages} {
		path := filepath.Join(dir, name)
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{5, len(pristine) / 2, len(pristine) - 1} {
			flipped := append([]byte(nil), pristine...)
			flipped[off] ^= 0x01
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := New().LoadFrom(dir); !errors.Is(err, ErrCorruptState) {
				t.Fatalf("%s: flip at %d: LoadFrom error = %v, want ErrCorruptState", name, off, err)
			}
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	restored := New()
	if err := restored.LoadFrom(dir); err != nil {
		t.Fatalf("LoadFrom after restore: %v", err)
	}
	if restored.NumProfiles() != 40 {
		t.Fatalf("restored %d profiles, want 40", restored.NumProfiles())
	}
}
