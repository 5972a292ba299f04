package segstore

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/lsh"
	"pisd/internal/obs"
)

// testPopulation builds a deterministic population whose metadata collides
// across users (values bucketed by id) so SecRec answers carry several
// identifiers, exercising merge order and dedup.
func testPopulation(t *testing.T, n int) (*crypt.KeySet, core.Params, []core.Item) {
	t.Helper()
	const tables = 5
	keys, err := crypt.GenDeterministic("segstore-test", tables)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{
		Tables:     tables,
		Capacity:   core.CapacityFor(n, 0.8),
		ProbeRange: 4,
		MaxLoop:    200,
		Seed:       1,
		StashSize:  8,
	}
	items := make([]core.Item, n)
	for i := range items {
		id := uint64(i + 1)
		items[i] = core.Item{ID: id, Meta: lsh.Metadata{
			id / 3, id * 7, id / 5, id * 13, id / 7,
		}}
	}
	return keys, p, items
}

// buildSegmented streams items through a Builder in batches and opens the
// resulting store.
func buildSegmented(t *testing.T, keys *crypt.KeySet, p core.Params, items []core.Item, dir string, batch int) (*Store, *Builder) {
	t.Helper()
	b, err := NewBuilder(keys, p, dir)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(items); lo += batch {
		if err := b.Add(items[lo:min(lo+batch, len(items))]); err != nil {
			t.Fatalf("Add batch at %d: %v", lo, err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st, b
}

// secRecOne answers one trapdoor the way every caller does: as a batch of
// one.
func secRecOne(st *Store, td *core.Trapdoor) ([]uint64, error) {
	ids, err := st.SecRecBatch([]*core.Trapdoor{td})
	if err != nil {
		return nil, err
	}
	return ids[0], nil
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreMatchesMonolithic is the equivalence property: for the same
// seeded population, SecRec over the segmented store returns the identical
// identifier sequence as the single-index build, query by query.
func TestStoreMatchesMonolithic(t *testing.T) {
	const n, batch = 3000, 500
	keys, p, items := testPopulation(t, n)
	single, err := core.Build(keys, items, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st, _ := buildSegmented(t, keys, p, items, t.TempDir(), batch)

	if got, want := len(st.Segments()), (n+batch-1)/batch; got != want {
		t.Fatalf("store has %d segments, want %d", got, want)
	}
	if st.Len() != n {
		t.Fatalf("store indexes %d items, want %d", st.Len(), n)
	}

	rng := rand.New(rand.NewSource(41))
	var tds []*core.Trapdoor
	for q := 0; q < 80; q++ {
		meta := items[rng.Intn(n)].Meta
		if q%10 == 9 { // non-member metadata: empty or accidental hits
			meta = lsh.Metadata{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		}
		td, err := core.GenTpdr(keys, meta, p)
		if err != nil {
			t.Fatal(err)
		}
		tds = append(tds, td)
		want, err := single.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		got, err := secRecOne(st, td)
		if err != nil {
			t.Fatalf("store SecRec: %v", err)
		}
		if !sameIDs(got, want) {
			t.Fatalf("query %d: store %v, monolithic %v", q, got, want)
		}
	}

	// The batch path shares scratch across sub-queries; results must not.
	wantBatch := make([][]uint64, len(tds))
	for i, td := range tds {
		wantBatch[i], _ = single.SecRec(td)
	}
	gotBatch, err := st.SecRecBatch(tds)
	if err != nil {
		t.Fatalf("SecRecBatch: %v", err)
	}
	for i := range tds {
		if !sameIDs(gotBatch[i], wantBatch[i]) {
			t.Fatalf("batch query %d: store %v, monolithic %v", i, gotBatch[i], wantBatch[i])
		}
	}
}

// TestStoreEquivalenceUnderCompaction keeps querying while the compactor
// merges generations concurrently: every answer along the way must equal
// the monolithic result, and the store must end at one segment.
func TestStoreEquivalenceUnderCompaction(t *testing.T) {
	const n, batch = 2400, 300
	keys, p, items := testPopulation(t, n)
	single, err := core.Build(keys, items, p)
	if err != nil {
		t.Fatal(err)
	}
	st, b := buildSegmented(t, keys, p, items, t.TempDir(), batch)

	rng := rand.New(rand.NewSource(43))
	type query struct {
		td   *core.Trapdoor
		want []uint64
	}
	queries := make([]query, 40)
	for i := range queries {
		td, err := core.GenTpdr(keys, items[rng.Intn(n)].Meta, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = query{td, want}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				got, err := secRecOne(st, q.td)
				if err != nil {
					errCh <- err
					return
				}
				if !sameIDs(got, q.want) {
					errCh <- fmt.Errorf("mid-compaction divergence: %v vs %v", got, q.want)
					return
				}
			}
		}(w)
	}

	c := NewCompactor(st, b.Placement(), CompactorConfig{Fanout: 3, Concurrency: 2})
	if err := c.Run(); err != nil {
		t.Fatalf("compaction: %v", err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if got := len(st.Segments()); got != 1 {
		t.Fatalf("store has %d segments after full compaction, want 1", got)
	}
	if st.Len() != n {
		t.Fatalf("store indexes %d items after compaction, want %d", st.Len(), n)
	}
	for i, q := range queries {
		got, err := secRecOne(st, q.td)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(got, q.want) {
			t.Fatalf("post-compaction query %d: %v vs %v", i, got, q.want)
		}
	}
	// Exactly one segment file remains on disk; retired files are gone.
	infos := st.Segments()
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Join(st.Dir(), entries[0].Name()) != infos[0].Path {
		t.Fatalf("directory holds %d entries, want only %s", len(entries), infos[0].Path)
	}
}

// TestCorruptionDetected flips one byte per position class in every
// segment file and requires the open to fail with ErrCorruptState; a
// truncated file must fail the same way.
func TestCorruptionDetected(t *testing.T) {
	const n, batch = 600, 200
	keys, p, items := testPopulation(t, n)
	dir := t.TempDir()
	st, _ := buildSegmented(t, keys, p, items, dir, batch)
	paths := make([]string, 0, len(st.Segments()))
	for _, info := range st.Segments() {
		paths = append(paths, info.Path)
	}
	st.Close()

	for _, path := range paths {
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// One flip in the envelope header, one mid-payload, one in the
		// checksum trailer.
		for _, off := range []int{2, len(pristine) / 2, len(pristine) - 3} {
			corrupted := append([]byte(nil), pristine...)
			corrupted[off] ^= 0x20
			if err := os.WriteFile(path, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenSegment(path); !errors.Is(err, ErrCorruptState) {
				t.Fatalf("%s: flip at %d: OpenSegment error = %v, want ErrCorruptState", filepath.Base(path), off, err)
			}
			if _, err := Open(dir); !errors.Is(err, ErrCorruptState) {
				t.Fatalf("%s: flip at %d: Open error = %v, want ErrCorruptState", filepath.Base(path), off, err)
			}
		}
		if err := os.WriteFile(path, pristine[:len(pristine)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegment(path); !errors.Is(err, ErrCorruptState) {
			t.Fatalf("%s: truncation: OpenSegment error = %v, want ErrCorruptState", filepath.Base(path), err)
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// All files restored: the store must open cleanly again.
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after restore: %v", err)
	}
	st2.Close()
}

// TestSealedFileRoundTrip pins the envelope: payload survives, a kind
// mismatch is corruption, a missing file is not.
func TestSealedFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteSealedFile(path, KindProfiles, []byte("hello "), []byte("world")); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadSealedFile(path, KindProfiles)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "hello world" {
		t.Fatalf("payload = %q", payload)
	}
	if _, err := ReadSealedFile(path, KindImages); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("kind mismatch error = %v, want ErrCorruptState", err)
	}
	if _, err := ReadSealedFile(filepath.Join(dir, "absent.bin"), KindProfiles); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file error = %v, want fs.ErrNotExist", err)
	}
	// No temp litter after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after write, want 1", len(entries))
	}
}

// TestOpenResolvesCrashWindow reproduces the crash between a compaction's
// rename and its deletes: the directory holds both the merged segment and
// its superseded inputs. Open must keep the newest generation and finish
// the deletes; a partial overlap must refuse to guess.
func TestOpenResolvesCrashWindow(t *testing.T) {
	const n, batch = 900, 300
	keys, p, items := testPopulation(t, n)
	dir := t.TempDir()
	st, b := buildSegmented(t, keys, p, items, dir, batch)
	st.Close()

	// The merged segment coexists with its gen-0 inputs.
	merged, err := b.Placement().EncryptRange(1, uint64(n)+1)
	if err != nil {
		t.Fatal(err)
	}
	mergedPath, err := WriteSegmentFile(dir, 1, 1, uint64(n)+1, merged)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with crash window: %v", err)
	}
	defer st2.Close()
	infos := st2.Segments()
	if len(infos) != 1 || infos[0].Path != mergedPath || infos[0].Generation != 1 {
		t.Fatalf("resolved to %+v, want only the merged generation-1 segment", infos)
	}
	if st2.Len() != n {
		t.Fatalf("resolved store indexes %d items, want %d", st2.Len(), n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("superseded segments not deleted: %d entries remain", len(entries))
	}

	// A newer segment covering only part of an older one is ambiguous.
	partial, err := b.Placement().EncryptRange(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSegmentFile(dir, 2, 1, 200, partial); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("partial overlap: Open error = %v, want ErrCorruptState", err)
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	keys, p, items := testPopulation(t, 100)
	b, err := NewBuilder(keys, p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(items[10:20]); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(items[:10]); err == nil {
		t.Error("out-of-order batch accepted")
	}
	if err := b.Add(items[10:20]); err == nil {
		t.Error("duplicate batch accepted")
	}
	if err := b.Add(items[20:]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(items[:1]); err == nil {
		t.Error("Add after Finish accepted")
	}
	if _, err := b.Finish(); err == nil {
		t.Error("double Finish accepted")
	}
}

// TestStoreMetrics wires a registry and checks the segment gauges track
// compaction and the query counters move.
func TestStoreMetrics(t *testing.T) {
	const n, batch = 1200, 300
	keys, p, items := testPopulation(t, n)
	st, b := buildSegmented(t, keys, p, items, t.TempDir(), batch)
	reg := obs.NewRegistry()
	st.SetRegistry(reg)

	if got := reg.Gauge("segstore.segments").Load(); got != 4 {
		t.Fatalf("segstore.segments = %d, want 4", got)
	}
	if got, want := reg.Gauge("segstore.bytes").Load(), st.Bytes(); got != want {
		t.Fatalf("segstore.bytes = %d, store reports %d", got, want)
	}
	td, err := core.GenTpdr(keys, items[0].Meta, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := secRecOne(st, td); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("segstore.queries").Load(); got != 1 {
		t.Fatalf("segstore.queries = %d, want 1", got)
	}
	wantReads := int64(p.BucketsPerQuery()) * 4 // every bucket read from all 4 segments
	if got := reg.Counter("segstore.bucket_reads").Load(); got != wantReads {
		t.Fatalf("segstore.bucket_reads = %d, want %d", got, wantReads)
	}
	if err := NewCompactor(st, b.Placement(), CompactorConfig{Fanout: 4}).Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("segstore.compactions").Load(); got != 1 {
		t.Fatalf("segstore.compactions = %d, want 1", got)
	}
	if got := reg.Gauge("segstore.segments").Load(); got != 1 {
		t.Fatalf("segstore.segments after compaction = %d, want 1", got)
	}
	if got, want := reg.Gauge("segstore.bytes").Load(), st.Bytes(); got != want {
		t.Fatalf("segstore.bytes after compaction = %d, store reports %d", got, want)
	}
}
