package cloud

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/lsh"
)

func buildIndex(t *testing.T, n int) (*core.Index, *crypt.KeySet, core.Params, []lsh.Metadata) {
	t.Helper()
	keys, err := crypt.GenDeterministic("cloud-test", 4)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]lsh.Metadata, n)
	items := make([]core.Item, n)
	for i := range metas {
		m := lsh.Metadata{uint64(i), uint64(i * 7), uint64(i * 13), uint64(i * 29)}
		metas[i] = m
		items[i] = core.Item{ID: uint64(i + 1), Meta: m}
	}
	p := core.Params{Tables: 4, Capacity: core.CapacityFor(n, 0.8), ProbeRange: 3, MaxLoop: 200, Seed: 1}
	idx, err := core.Build(keys, items, p)
	if err != nil {
		t.Fatal(err)
	}
	return idx, keys, p, metas
}

func TestSecRecSkipsMissingProfiles(t *testing.T) {
	idx, keys, p, metas := buildIndex(t, 100)
	s := New()
	s.SetIndex(idx)
	// Store profiles only for even ids.
	for i := 0; i < 100; i += 2 {
		s.PutProfile(uint64(i+1), []byte{byte(i)})
	}
	td, err := core.GenTpdr(keys, metas[4], p) // id 5, odd -> no profile
	if err != nil {
		t.Fatal(err)
	}
	ids, profiles, err := s.SecRec(td)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(profiles) {
		t.Fatalf("ids %d vs profiles %d", len(ids), len(profiles))
	}
	for _, id := range ids {
		if id%2 == 0 {
			t.Fatalf("odd-id user %d returned without stored profile", id)
		}
	}
}

func TestDeleteProfileAndCounts(t *testing.T) {
	s := New()
	s.PutProfiles(map[uint64][]byte{1: {1}, 2: {2}})
	if s.NumProfiles() != 2 {
		t.Fatalf("NumProfiles = %d", s.NumProfiles())
	}
	s.DeleteProfile(1)
	if s.NumProfiles() != 1 {
		t.Fatalf("NumProfiles after delete = %d", s.NumProfiles())
	}
	if got, err := s.FetchProfiles([]uint64{1, 2}); err != nil || len(got) != 2 || len(got[0]) != 0 || len(got[1]) == 0 {
		t.Errorf("FetchProfiles after delete = %v, %v; want an empty slot for the deleted id only", got, err)
	}
}

func TestIndexSizeBytes(t *testing.T) {
	s := New()
	if s.IndexSizeBytes() != 0 {
		t.Error("empty server reports index size")
	}
	idx, _, _, _ := buildIndex(t, 50)
	s.SetIndex(idx)
	if s.IndexSizeBytes() != idx.SizeBytes() {
		t.Error("IndexSizeBytes mismatch")
	}
}

func TestPutProfileCopies(t *testing.T) {
	s := New()
	ct := []byte{1, 2, 3}
	s.PutProfile(9, ct)
	ct[0] = 99
	got, err := s.FetchProfiles([]uint64{9})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 1 {
		t.Error("PutProfile aliases caller slice")
	}
}

func TestFetchProfilesDuplicateIDs(t *testing.T) {
	s := New()
	s.PutProfiles(map[uint64][]byte{1: {10}, 2: {20}, 3: {30}})
	req := []uint64{2, 1, 2, 3, 2, 1}
	got, err := s.FetchProfiles(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(req) {
		t.Fatalf("%d results for %d requested ids", len(got), len(req))
	}
	// Duplicate ids get one ciphertext each, aligned with request order.
	want := []byte{20, 10, 20, 30, 20, 10}
	for i, ct := range got {
		if len(ct) != 1 || ct[0] != want[i] {
			t.Fatalf("position %d = %v, want [%d]", i, ct, want[i])
		}
	}
	// Unknown ids, duplicated or not, answer as empty slots in place.
	got, err = s.FetchProfiles([]uint64{1, 9, 9})
	if err != nil || len(got) != 3 || len(got[0]) != 1 || len(got[1]) != 0 || len(got[2]) != 0 {
		t.Errorf("FetchProfiles with unknown ids = %v, %v", got, err)
	}
}

// TestSecRecBatchMatchesSerial: a batch of q answers exactly what q batches
// of one do (SecRec is a batch of one).
func TestSecRecBatchMatchesSerial(t *testing.T) {
	idx, keys, p, metas := buildIndex(t, 150)
	s := New()
	s.SetIndex(idx)
	for i := 0; i < 150; i++ {
		s.PutProfile(uint64(i+1), []byte{byte(i)})
	}
	tds := make([]*core.Trapdoor, 20)
	for q := range tds {
		td, err := core.GenTpdr(keys, metas[q*3], p)
		if err != nil {
			t.Fatal(err)
		}
		tds[q] = td
	}
	batchIDs, batchProfiles, err := s.SecRecBatch(context.Background(), tds)
	if err != nil {
		t.Fatalf("SecRecBatch: %v", err)
	}
	if len(batchIDs) != len(tds) || len(batchProfiles) != len(tds) {
		t.Fatalf("batch of %d answered with %d/%d results", len(tds), len(batchIDs), len(batchProfiles))
	}
	for q, td := range tds {
		ids, profiles, err := s.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batchIDs[q], ids) {
			t.Fatalf("query %d ids: %v, want %v", q, batchIDs[q], ids)
		}
		if !reflect.DeepEqual(batchProfiles[q], profiles) {
			t.Fatalf("query %d profiles differ from serial SecRec", q)
		}
	}
	// Without an index the exchange fails; a cancelled caller never
	// reaches the index.
	if _, _, err := New().SecRecBatch(context.Background(), tds); !errors.Is(err, ErrNoIndex) {
		t.Errorf("no-index batch err = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.SecRecBatch(ctx, tds); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled batch err = %v", err)
	}
}

// Concurrent discovery, profile updates and image uploads must be safe.
func TestConcurrentAccess(t *testing.T) {
	idx, keys, p, metas := buildIndex(t, 200)
	s := New()
	s.SetIndex(idx)
	for i := 0; i < 200; i++ {
		s.PutProfile(uint64(i+1), []byte{byte(i)})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 50; q++ {
				td, err := core.GenTpdr(keys, metas[(w*50+q)%len(metas)], p)
				if err != nil {
					errs <- err
					return
				}
				if _, _, err := s.SecRec(td); err != nil {
					errs <- err
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 50; q++ {
				s.PutProfile(uint64(1000+w*100+q), []byte{1})
				s.DeleteProfile(uint64(1000 + w*100 + q))
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 50; q++ {
				s.StoreImages(uint64(w), []byte("img"))
				s.Images(uint64(w))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
