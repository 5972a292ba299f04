package segstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pisd/internal/core"
)

// Store serves SecRec over a directory of segment files. Each trapdoor
// fans out across the live segments: for every addressed bucket the store
// reads that bucket's BucketSize bytes from each segment on demand and
// unmasks them. The global placement guarantees at most one segment holds
// a real payload per bucket position (the others hold padding, which
// unmasks to nothing), so the identifier sequence is byte-identical to the
// monolithic index's SecRec for the same trapdoor — in the same discovery
// order, since buckets are visited in the same order and segments only
// decide which of them speaks.
//
// Reads take a reference-counted snapshot of the live set, so the
// compactor can atomically swap merged segments in while queries are in
// flight; retired segments close once their last reader releases them.
type Store struct {
	dir string

	mu    sync.RWMutex
	segs  []*Segment // sorted by lo, non-overlapping
	shape core.IndexShape
	items int
	bytes int64

	met storeMetrics
}

// Open opens every valid segment in dir. Leftover temp files are removed;
// overlapping ranges (a crash window between a compaction's rename and its
// deletes) are resolved in favor of the newest generation, deleting fully
// superseded segments. Any damaged segment file fails the open with an
// error wrapping ErrCorruptState — a store never silently drops data.
func Open(dir string) (*Store, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var opened []*Segment
	ok := false
	defer func() {
		if !ok {
			for _, sg := range opened {
				sg.Close()
			}
		}
	}()
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir():
			continue
		case strings.HasPrefix(name, ".tmp-"):
			os.Remove(filepath.Join(dir, name))
			continue
		case !strings.HasSuffix(name, SegmentExt):
			continue
		}
		sg, err := OpenSegment(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		opened = append(opened, sg)
	}
	live, err := resolveOverlaps(opened)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir}
	for _, sg := range live {
		if s.shape.Width == 0 {
			s.shape = sg.shape
		} else if params := sg.shape.Params; params != s.shape.Params || sg.shape.Width != s.shape.Width {
			return nil, fmt.Errorf("%w: %s: segment shape differs from the rest of the store", ErrCorruptState, sg.path)
		}
		s.items += sg.shape.N
		s.bytes += sg.size
	}
	s.segs = live
	ok = true
	return s, nil
}

// resolveOverlaps picks the authoritative segment set: newest generation
// first, accepting each segment whose range is untouched so far and
// deleting segments fully covered by already-accepted newer ones. A
// partial overlap has no consistent reading and fails the open.
func resolveOverlaps(segs []*Segment) ([]*Segment, error) {
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].gen != segs[j].gen {
			return segs[i].gen > segs[j].gen
		}
		return segs[i].lo < segs[j].lo
	})
	var live []*Segment // sorted by lo
	for _, sg := range segs {
		switch covered, overlaps := coverage(live, sg.lo, sg.hi); {
		case !overlaps:
			at := sort.Search(len(live), func(i int) bool { return live[i].lo > sg.lo })
			live = append(live, nil)
			copy(live[at+1:], live[at:])
			live[at] = sg
		case covered:
			// Superseded by newer generations: the crash window between a
			// compaction's rename and its deletes. Finish the delete.
			sg.retire(true)
		default:
			return nil, fmt.Errorf("%w: %s: range [%d, %d) partially overlaps newer segments", ErrCorruptState, sg.path, sg.lo, sg.hi)
		}
	}
	return live, nil
}

// coverage reports whether [lo, hi) is fully covered by the sorted,
// non-overlapping live ranges, and whether it overlaps any of them at all.
func coverage(live []*Segment, lo, hi uint64) (covered, overlaps bool) {
	cursor := lo
	for _, sg := range live {
		if sg.hi <= lo || sg.lo >= hi {
			continue
		}
		overlaps = true
		if sg.lo > cursor {
			return false, true // gap inside [lo, hi)
		}
		if sg.hi > cursor {
			cursor = sg.hi
		}
		if cursor >= hi {
			return true, true
		}
	}
	return false, overlaps
}

// Dir returns the directory the store serves from.
func (s *Store) Dir() string { return s.dir }

// Params returns the store's index parameters (zero value when empty).
func (s *Store) Params() core.Params {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shape.Params
}

// Len returns the total number of indexed items across live segments.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.items
}

// Bytes returns the total on-disk size of the live segments.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Segments describes the live segments, sorted by range.
func (s *Store) Segments() []SegmentInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	infos := make([]SegmentInfo, len(s.segs))
	for i, sg := range s.segs {
		infos[i] = sg.Info()
	}
	return infos
}

// Close releases every live segment. Reads in flight finish normally.
func (s *Store) Close() error {
	s.mu.Lock()
	segs := s.segs
	s.segs = nil
	s.items, s.bytes = 0, 0
	s.mu.Unlock()
	for _, sg := range segs {
		sg.Close()
	}
	return nil
}

// snapshot acquires the current live set for reading.
func (s *Store) snapshot() ([]*Segment, core.IndexShape, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.segs) == 0 {
		return nil, core.IndexShape{}, fmt.Errorf("segstore: store has no segments")
	}
	segs := make([]*Segment, len(s.segs))
	copy(segs, s.segs)
	for _, sg := range segs {
		sg.acquire()
	}
	return segs, s.shape, nil
}

func releaseAll(segs []*Segment) {
	for _, sg := range segs {
		sg.release()
	}
}

// secRecScratch carries per-query working state across a batch.
type secRecScratch struct {
	seen   map[uint64]struct{}
	bucket [core.BucketSize]byte
}

// SecRecBatch answers a batch of trapdoors over one snapshot, so every
// sub-query sees the same segment set even under concurrent compaction.
func (s *Store) SecRecBatch(ts []*core.Trapdoor) ([][]uint64, error) {
	segs, shape, err := s.snapshot()
	if err != nil {
		return nil, err
	}
	defer releaseAll(segs)
	sc := secRecScratch{seen: make(map[uint64]struct{}, shape.Params.BucketsPerQuery())}
	out := make([][]uint64, len(ts))
	for i, t := range ts {
		ids, err := s.secRec(t, segs, shape, &sc)
		if err != nil {
			return nil, fmt.Errorf("segstore: batch query %d: %w", i, err)
		}
		out[i] = ids
	}
	return out, nil
}

// secRec runs one query against a snapshot. Bucket visit order matches
// Index.SecRecWith — tables ascending, entries in trapdoor order, then the
// stash — with the segments as an inner loop: at most one segment unmasks
// a real payload at any visited position, so discovery order is preserved.
func (s *Store) secRec(t *core.Trapdoor, segs []*Segment, shape core.IndexShape, sc *secRecScratch) ([]uint64, error) {
	if t == nil {
		return nil, fmt.Errorf("segstore: nil trapdoor")
	}
	if len(t.Tables) != shape.Params.Tables {
		return nil, fmt.Errorf("segstore: trapdoor covers %d tables, store has %d", len(t.Tables), shape.Params.Tables)
	}
	if len(t.Stash) > shape.Params.StashSize {
		return nil, fmt.Errorf("segstore: trapdoor stash covers %d slots, store has %d", len(t.Stash), shape.Params.StashSize)
	}
	clear(sc.seen)
	ids := make([]uint64, 0, shape.Params.BucketsPerQuery())
	start := time.Now()
	reads := 0
	for j, entries := range t.Tables {
		for i := range entries {
			e := &entries[i]
			if e.Pos >= uint64(shape.Width) {
				return nil, fmt.Errorf("segstore: trapdoor position %d out of range (w=%d)", e.Pos, shape.Width)
			}
			if len(e.Mask) != core.BucketSize {
				return nil, fmt.Errorf("segstore: trapdoor mask length %d, want %d", len(e.Mask), core.BucketSize)
			}
			for _, sg := range segs {
				if err := sg.readBucket(j, e.Pos, sc.bucket[:]); err != nil {
					return nil, fmt.Errorf("segstore: read %s bucket (%d,%d): %w", sg.path, j, e.Pos, err)
				}
				reads++
				ids = sc.collect(ids, e.Mask)
			}
		}
	}
	for pos, mask := range t.Stash {
		if len(mask) != core.BucketSize {
			return nil, fmt.Errorf("segstore: trapdoor stash mask length %d, want %d", len(mask), core.BucketSize)
		}
		for _, sg := range segs {
			if err := sg.readStash(pos, sc.bucket[:]); err != nil {
				return nil, fmt.Errorf("segstore: read %s stash %d: %w", sg.path, pos, err)
			}
			reads++
			ids = sc.collect(ids, mask)
		}
	}
	if reads > 0 && s.met.loadNs != nil {
		// Amortized per-read load latency: one clock pair per query, not
		// per ReadAt, keeps the probe overhead off the read path.
		s.met.loadNs.Observe(time.Since(start).Nanoseconds() / int64(reads))
		s.met.bucketReads.Add(int64(reads))
	}
	s.met.queries.Inc()
	return ids, nil
}

// collect unmasks the scratch bucket and appends a newly seen identifier.
func (sc *secRecScratch) collect(ids []uint64, mask []byte) []uint64 {
	if id, ok := core.RecoverID(sc.bucket[:], mask); ok {
		if _, dup := sc.seen[id]; !dup {
			sc.seen[id] = struct{}{}
			ids = append(ids, id)
		}
	}
	return ids
}

// swap atomically replaces the retire set with the merged segment. The
// retired files are unlinked; their descriptors close when the last
// in-flight reader releases them.
func (s *Store) swap(add *Segment, retire []*Segment) error {
	s.mu.Lock()
	present := make(map[*Segment]bool, len(retire))
	for _, sg := range retire {
		present[sg] = false
	}
	for _, sg := range s.segs {
		if _, ok := present[sg]; ok {
			present[sg] = true
		}
	}
	for sg, found := range present {
		if !found {
			s.mu.Unlock()
			return fmt.Errorf("segstore: swap: segment %s is not live", sg.path)
		}
	}
	live := make([]*Segment, 0, len(s.segs)-len(retire)+1)
	for _, sg := range s.segs {
		if _, drop := present[sg]; !drop {
			live = append(live, sg)
		}
	}
	at := sort.Search(len(live), func(i int) bool { return live[i].lo > add.lo })
	live = append(live, nil)
	copy(live[at+1:], live[at:])
	live[at] = add
	s.segs = live
	s.items += add.shape.N
	s.bytes += add.size
	for _, sg := range retire {
		s.items -= sg.shape.N
		s.bytes -= sg.size
	}
	s.updateGaugesLocked()
	s.mu.Unlock()
	for _, sg := range retire {
		sg.retire(true)
	}
	return nil
}
