package subs

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pisd/internal/vec"
)

func collect(dst *[]Notification) func(Notification) {
	return func(n Notification) { *dst = append(*dst, n) }
}

// refsFor gives distinct single-bucket reference sets per "user" so tests
// can steer which inserts match which subscriptions.
func refsFor(ids ...uint64) []Ref {
	out := make([]Ref, 0, len(ids))
	for _, id := range ids {
		out = append(out, Ref{Shard: 0, Table: int(id % 3), Pos: id})
	}
	return out
}

func target(v float64) []float64 { return []float64{v, 0} }

func profileAt(v float64) []float64 { return []float64{v, 0} }

func TestRegisterSeedsWithoutNotifying(t *testing.T) {
	var got []Notification
	m := NewManager(collect(&got))
	top, err := m.Register(1, 2, target(0), 1, refsFor(10, 11),
		map[uint64]float64{5: 4, 6: 1, 7: 9, 1: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("registration emitted %d notifications", len(got))
	}
	if len(top) != 2 || top[0].ID != 6 || top[1].ID != 5 {
		t.Fatalf("seed top-k = %v, want [6 5]", top)
	}
	// The subscriber's own id is excluded even when present in the seed.
	for _, e := range top {
		if e.ID == 1 {
			t.Fatal("excluded id seeded into standing result")
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestRegisterValidation(t *testing.T) {
	m := NewManager(nil)
	if _, err := m.Register(0, 1, target(0), 0, refsFor(1), nil); err == nil {
		t.Fatal("zero id accepted")
	}
	if _, err := m.Register(1, 0, target(0), 0, refsFor(1), nil); err == nil {
		t.Fatal("zero k accepted")
	}
	if _, err := m.Register(1, 1, target(0), 0, nil, nil); err == nil {
		t.Fatal("empty refs accepted")
	}
	if _, err := m.Register(1, 1, target(0), 0, refsFor(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Register(1, 1, target(0), 0, refsFor(1), nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestInsertMatchesByRefIntersection(t *testing.T) {
	var got []Notification
	m := NewManager(collect(&got))
	if _, err := m.Register(1, 2, target(0), 1, refsFor(10, 11), nil); err != nil {
		t.Fatal(err)
	}
	// Disjoint write set: no match, no notification.
	if n := m.OnInsert(50, profileAt(1), refsFor(99)); n != 0 {
		t.Fatalf("disjoint insert emitted %d", n)
	}
	// Intersecting write set: enters the empty standing result.
	if n := m.OnInsert(51, profileAt(3), refsFor(11, 99)); n != 1 {
		t.Fatalf("matching insert emitted %d", n)
	}
	if len(got) != 1 || got[0].SubID != 1 || got[0].ID != 51 || got[0].EvictedID != 0 ||
		got[0].Promoted || got[0].Distance != 3 {
		t.Fatalf("notification = %+v", got[0])
	}
}

func TestInsertEvictsWorstOnFullTopK(t *testing.T) {
	var got []Notification
	m := NewManager(collect(&got))
	if _, err := m.Register(1, 2, target(0), 1,
		refsFor(10), map[uint64]float64{5: 2, 6: 4}); err != nil {
		t.Fatal(err)
	}
	// Worse than the current k-th: silent.
	m.OnInsert(52, profileAt(5), refsFor(10))
	if len(got) != 0 {
		t.Fatalf("non-entering insert notified: %+v", got)
	}
	// Better: enters, evicting id 6 (distance 4).
	m.OnInsert(53, profileAt(1), refsFor(10))
	if len(got) != 1 || got[0].ID != 53 || got[0].EvictedID != 6 || got[0].Distance != 1 {
		t.Fatalf("notification = %+v", got)
	}
	top, _ := m.TopK(1)
	if len(top) != 2 || top[0].ID != 53 || top[1].ID != 5 {
		t.Fatalf("standing result = %v", top)
	}
}

func TestDeletePromotesRunnerUp(t *testing.T) {
	var got []Notification
	m := NewManager(collect(&got))
	if _, err := m.Register(1, 2, target(0), 1,
		refsFor(10), map[uint64]float64{5: 2, 6: 4}); err != nil {
		t.Fatal(err)
	}
	m.OnInsert(54, profileAt(5), refsFor(10)) // runner-up at distance 5
	if len(got) != 0 {
		t.Fatal("runner-up notified on insert")
	}
	// Deleting a standing member promotes the runner-up: first disclosure.
	if n := m.OnDelete(5); n != 1 {
		t.Fatalf("delete emitted %d", n)
	}
	if len(got) != 1 || got[0].ID != 54 || !got[0].Promoted || got[0].EvictedID != 0 {
		t.Fatalf("promotion notification = %+v", got)
	}
	// Deleting a non-candidate is a no-op.
	if n := m.OnDelete(999); n != 0 {
		t.Fatalf("unknown delete emitted %d", n)
	}
	// Deleting below the standing result is silent.
	m.OnInsert(55, profileAt(9), refsFor(10))
	got = got[:0]
	if n := m.OnDelete(55); n != 0 {
		t.Fatalf("runner-up delete emitted %d", n)
	}
}

func TestTieBreakByID(t *testing.T) {
	var got []Notification
	m := NewManager(collect(&got))
	if _, err := m.Register(1, 1, target(0), 1,
		refsFor(10), map[uint64]float64{7: 4}); err != nil {
		t.Fatal(err)
	}
	// Same distance, lower id: wins the tie, evicting 7.
	m.OnInsert(3, profileAt(4), refsFor(10))
	if len(got) != 1 || got[0].ID != 3 || got[0].EvictedID != 7 {
		t.Fatalf("tie notification = %+v", got)
	}
	// Same distance, higher id: loses the tie, silent.
	got = got[:0]
	m.OnInsert(9, profileAt(-4), refsFor(10))
	if len(got) != 0 {
		t.Fatalf("tie loser notified: %+v", got)
	}
}

func TestUnsubscribeStopsNotifications(t *testing.T) {
	var got []Notification
	m := NewManager(collect(&got))
	if _, err := m.Register(1, 1, target(0), 1, refsFor(10), nil); err != nil {
		t.Fatal(err)
	}
	if !m.Unsubscribe(1) {
		t.Fatal("unsubscribe reported missing")
	}
	if m.Unsubscribe(1) {
		t.Fatal("double unsubscribe reported success")
	}
	if n := m.OnInsert(50, profileAt(1), refsFor(10)); n != 0 {
		t.Fatalf("insert after unsubscribe emitted %d", n)
	}
	if _, ok := m.TopK(1); ok {
		t.Fatal("TopK after unsubscribe")
	}
}

func TestRescoreDropsMissingAndFixesDrift(t *testing.T) {
	var got []Notification
	m := NewManager(collect(&got))
	if _, err := m.Register(1, 1, target(0), 1,
		refsFor(10), map[uint64]float64{5: 4, 6: 16}); err != nil {
		t.Fatal(err)
	}
	ids := m.CandidateIDs()
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 6 {
		t.Fatalf("CandidateIDs = %v", ids)
	}
	// 5 vanished from the authoritative store; 6's profile moved closer.
	changed := m.Rescore(map[uint64][]float64{6: profileAt(1)})
	if changed != 2 {
		t.Fatalf("Rescore changed %d", changed)
	}
	if len(got) != 1 || got[0].ID != 6 || !got[0].Promoted || got[0].Distance != 1 {
		t.Fatalf("rescore notification = %+v", got)
	}
	// A faithful store is a fixed point.
	got = got[:0]
	if changed := m.Rescore(map[uint64][]float64{6: profileAt(1)}); changed != 0 {
		t.Fatalf("idempotent rescore changed %d", changed)
	}
	if len(got) != 0 {
		t.Fatalf("idempotent rescore notified: %+v", got)
	}
}

func TestSequenceNumbersStrictlyIncrease(t *testing.T) {
	var got []Notification
	m := NewManager(collect(&got))
	for _, sub := range []uint64{1, 2} {
		if _, err := m.Register(sub, 3, target(0), sub, refsFor(10), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		m.OnInsert(100+i, profileAt(float64(i)), refsFor(10))
	}
	// Each subscription's standing result (k=3) fills from the first
	// three inserts; the rest are farther and stay silent.
	if len(got) != 6 {
		t.Fatalf("%d notifications, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("sequence not increasing at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
}

func TestDistanceIsExact(t *testing.T) {
	m := NewManager(nil)
	tgt := []float64{0.25, -1.5, 3}
	p := []float64{1, 2, -0.5}
	if _, err := m.Register(1, 1, tgt, 1, refsFor(10), nil); err != nil {
		t.Fatal(err)
	}
	m.OnInsert(50, p, refsFor(10))
	top, _ := m.TopK(1)
	want := math.Sqrt(0.75*0.75 + 3.5*3.5 + 3.5*3.5)
	if len(top) != 1 || math.Abs(top[0].Distance-want) > 1e-12 {
		t.Fatalf("distance = %v, want %v", top, want)
	}
}

// refManager is the full-recompute reference the incremental Manager is
// tested against: every transition re-sorts the subscription's whole
// candidate set (topSet) and diffs the old and new standing sets (retop).
// Inputs are assumed valid; it mirrors the Manager's observable behaviour
// — notifications with every field, Seq included, and standing results.
type refManager struct {
	subs map[uint64]*refSub
	seq  uint64
	out  []Notification
}

type refSub struct {
	id      uint64
	k       int
	exclude uint64
	target  []float64
	refs    map[Ref]bool
	cands   map[uint64]float64
	top     map[uint64]bool
}

func newRefManager() *refManager { return &refManager{subs: make(map[uint64]*refSub)} }

// topSet selects the k smallest candidates by (distance, id).
func (s *refSub) topSet() map[uint64]bool {
	ids := make([]uint64, 0, len(s.cands))
	for id := range s.cands {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := s.cands[ids[a]], s.cands[ids[b]]
		if da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	if len(ids) > s.k {
		ids = ids[:s.k]
	}
	top := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		top[id] = true
	}
	return top
}

func (s *refSub) entries() []Entry {
	out := make([]Entry, 0, len(s.top))
	for id := range s.top {
		out = append(out, Entry{ID: id, Distance: s.cands[id]})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// retop recomputes s's standing set and records a notification for every
// new member, in (distance, id) order, pairing evictions positionally in
// ascending-id order.
func (m *refManager) retop(s *refSub, promoted bool) {
	next := s.topSet()
	var entered, evicted []uint64
	for id := range next {
		if !s.top[id] {
			entered = append(entered, id)
		}
	}
	for id := range s.top {
		if !next[id] {
			evicted = append(evicted, id)
		}
	}
	s.top = next
	sort.Slice(entered, func(a, b int) bool {
		da, db := s.cands[entered[a]], s.cands[entered[b]]
		if da != db {
			return da < db
		}
		return entered[a] < entered[b]
	})
	sort.Slice(evicted, func(a, b int) bool { return evicted[a] < evicted[b] })
	for i, id := range entered {
		n := Notification{SubID: s.id, ID: id, Distance: s.cands[id], Promoted: promoted}
		if i < len(evicted) {
			n.EvictedID = evicted[i]
		}
		m.seq++
		n.Seq = m.seq
		m.out = append(m.out, n)
	}
}

func (m *refManager) sorted() []*refSub {
	out := make([]*refSub, 0, len(m.subs))
	for _, s := range m.subs {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

func (m *refManager) register(subID uint64, k int, target []float64, excludeID uint64, refs []Ref, seed map[uint64]float64) []Entry {
	s := &refSub{id: subID, k: k, exclude: excludeID, target: target, refs: make(map[Ref]bool), cands: make(map[uint64]float64)}
	for _, r := range refs {
		s.refs[r] = true
	}
	for id, d := range seed {
		if excludeID == 0 || id != excludeID {
			s.cands[id] = d
		}
	}
	s.top = s.topSet()
	m.subs[subID] = s
	return s.entries()
}

func (m *refManager) onInsert(id uint64, profile []float64, refs []Ref) {
	for _, s := range m.sorted() {
		hit := false
		for _, r := range refs {
			hit = hit || s.refs[r]
		}
		if !hit || id == s.id || (s.exclude != 0 && id == s.exclude) {
			continue
		}
		if _, ok := s.cands[id]; ok {
			continue
		}
		s.cands[id] = vec.Distance(s.target, profile)
		m.retop(s, false)
	}
}

func (m *refManager) onDelete(id uint64) {
	for _, s := range m.sorted() {
		if _, ok := s.cands[id]; !ok {
			continue
		}
		delete(s.cands, id)
		delete(s.top, id)
		m.retop(s, true)
	}
}

func (m *refManager) rescore(profiles map[uint64][]float64) int {
	changed := 0
	for _, s := range m.sorted() {
		dirty := false
		for id, old := range s.cands {
			p, ok := profiles[id]
			if !ok {
				delete(s.cands, id)
				delete(s.top, id)
				changed++
				dirty = true
				continue
			}
			if d := vec.Distance(s.target, p); d != old {
				s.cands[id] = d
				changed++
				dirty = true
			}
		}
		if dirty {
			m.retop(s, true)
		}
	}
	return changed
}

// differentialRun drives the Manager and the reference through one seeded
// sequence of Register, Unsubscribe, OnInsert, OnDelete and Rescore and
// fails on the first operation after which any notification (every field)
// or any standing result differs.
func differentialRun(t *testing.T, seed int64, ops int) {
	const maxSub, buckets = 8, 10
	rng := rand.New(rand.NewSource(seed))
	var got []Notification
	m := NewManager(collect(&got))
	ref := newRefManager()

	// Coordinates on a small integer grid: many profiles coincide, so
	// distances tie exactly and the id tie-break decides.
	point := func() []float64 { return []float64{float64(rng.Intn(4)), float64(rng.Intn(3))} }
	refSet := func(max int) []Ref {
		out := make([]Ref, 1+rng.Intn(max))
		for i := range out {
			out[i] = Ref{Shard: rng.Intn(2), Table: 0, Pos: uint64(rng.Intn(buckets))}
		}
		return out
	}
	live := make(map[uint64][]float64) // inserted, not yet deleted
	nextID := uint64(100)
	pickLive := func() uint64 {
		ids := make([]uint64, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		if len(ids) == 0 {
			return 0
		}
		return ids[rng.Intn(len(ids))]
	}
	// pickMember returns a random standing member (top) or non-member
	// candidate of a random live subscription.
	pickCand := func(member bool) uint64 {
		subIDs := slices.Sorted(maps.Keys(ref.subs))
		if len(subIDs) == 0 {
			return 0
		}
		s := ref.subs[subIDs[rng.Intn(len(subIDs))]]
		var ids []uint64
		for id := range s.cands {
			if s.top[id] == member {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		if len(ids) == 0 {
			return 0
		}
		return ids[rng.Intn(len(ids))]
	}

	for op := 0; op < ops; op++ {
		got, ref.out = got[:0], ref.out[:0]
		var what string
		switch u := rng.Intn(100); {
		case u < 10: // Register (or a duplicate, which both refuse)
			subID := uint64(1 + rng.Intn(maxSub))
			k := []int{1, 3, 10}[rng.Intn(3)]
			target := point()
			exclude := subID
			if rng.Intn(4) == 0 {
				exclude = 0
			}
			seedSet := make(map[uint64]float64)
			for i := rng.Intn(8); i > 0; i-- {
				if id := pickLive(); id != 0 {
					seedSet[id] = vec.Distance(target, live[id])
				}
			}
			if rng.Intn(3) == 0 {
				seedSet[subID] = 0 // the subscriber itself, always filtered
			}
			refs := refSet(4)
			what = fmt.Sprintf("Register(%d, k=%d, exclude=%d, %d seeds)", subID, k, exclude, len(seedSet))
			top, err := m.Register(subID, k, target, exclude, refs, seedSet)
			if _, dup := ref.subs[subID]; dup {
				if err == nil {
					t.Fatalf("op %d: %s: duplicate accepted", op, what)
				}
				break
			}
			if err != nil {
				t.Fatalf("op %d: %s: %v", op, what, err)
			}
			if want := ref.register(subID, k, target, exclude, refs, seedSet); !slices.Equal(top, want) {
				t.Fatalf("op %d: %s: seeded %v, reference %v", op, what, top, want)
			}
		case u < 14: // Unsubscribe, present or not
			subID := uint64(1 + rng.Intn(maxSub))
			what = fmt.Sprintf("Unsubscribe(%d)", subID)
			_, want := ref.subs[subID]
			delete(ref.subs, subID)
			if m.Unsubscribe(subID) != want {
				t.Fatalf("op %d: %s: reported %v", op, what, !want)
			}
		case u < 55: // OnInsert: fresh id, or one already a candidate
			id := nextID
			p := point()
			if rng.Intn(10) == 0 {
				if c := pickCand(rng.Intn(2) == 0); c != 0 {
					id, p = c, live[c]
				}
			}
			if rng.Intn(20) == 0 {
				id = uint64(1 + rng.Intn(maxSub)) // a subscriber's own id
			}
			if id == nextID {
				nextID++
			}
			live[id] = p
			refs := refSet(3)
			what = fmt.Sprintf("OnInsert(%d at %v)", id, p)
			n := m.OnInsert(id, p, refs)
			ref.onInsert(id, p, refs)
			if n != len(ref.out) {
				t.Fatalf("op %d: %s: returned %d, reference emitted %d", op, what, n, len(ref.out))
			}
		case u < 90: // OnDelete of a standing member, a runner-up or an absent id
			var id uint64
			switch rng.Intn(3) {
			case 0:
				id = pickCand(true)
			case 1:
				id = pickCand(false)
			}
			if id == 0 {
				id = nextID + 1000 // never inserted
			}
			delete(live, id)
			what = fmt.Sprintf("OnDelete(%d)", id)
			n := m.OnDelete(id)
			ref.onDelete(id)
			if n != len(ref.out) {
				t.Fatalf("op %d: %s: returned %d, reference emitted %d", op, what, n, len(ref.out))
			}
		default: // Rescore: some candidates vanished, some profiles moved
			profiles := make(map[uint64][]float64)
			for id, p := range live {
				switch rng.Intn(8) {
				case 0: // dropped
				case 1:
					profiles[id] = point()
				default:
					profiles[id] = p
				}
			}
			what = fmt.Sprintf("Rescore(%d profiles)", len(profiles))
			if n, want := m.Rescore(profiles), ref.rescore(profiles); n != want {
				t.Fatalf("op %d: %s: changed %d, reference %d", op, what, n, want)
			}
			for id := range live {
				if _, ok := profiles[id]; !ok {
					delete(live, id)
				} else {
					live[id] = profiles[id]
				}
			}
		}
		if !slices.Equal(got, ref.out) {
			t.Fatalf("op %d: %s: notified\n  %+v\nreference\n  %+v", op, what, got, ref.out)
		}
		for subID := uint64(1); subID <= maxSub; subID++ {
			top, ok := m.TopK(subID)
			rs, want := ref.subs[subID]
			if ok != want || (ok && !slices.Equal(top, rs.entries())) {
				t.Fatalf("op %d: %s: subscription %d standing %v (live %v), reference %v (live %v)", op, what, subID, top, ok, rs, want)
			}
		}
	}
	var union []uint64
	for _, s := range ref.subs {
		for id := range s.cands {
			union = append(union, id)
		}
	}
	slices.Sort(union)
	if ids := m.CandidateIDs(); !slices.Equal(ids, slices.Compact(union)) {
		t.Fatalf("CandidateIDs %v, reference %v", ids, slices.Compact(union))
	}
}

// TestManagerMatchesFullRecompute is the differential test of the
// incremental standing results against the full-recompute reference.
func TestManagerMatchesFullRecompute(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		name := fmt.Sprintf("seed=%d", seed)
		t.Run(name, func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("repro: go test ./internal/subs -run 'TestManagerMatchesFullRecompute/%s'", name)
				}
			}()
			differentialRun(t, seed, 1500)
		})
	}
}

// TestOnInsertOutsideTopKAllocations pins the cost of a matched insert
// that enters no standing result: it compares with the worst member and
// stops, so its allocations do not grow with the candidate set (a full
// re-rank allocated a |cands|-long slice every time).
func TestOnInsertOutsideTopKAllocations(t *testing.T) {
	for _, n := range []int{64, 4096} {
		m := NewManager(nil)
		seed := make(map[uint64]float64, n)
		for i := 1; i <= n; i++ {
			seed[uint64(i)] = float64(i)
		}
		if _, err := m.Register(1<<40, 3, target(0), 0, refsFor(10), seed); err != nil {
			t.Fatal(err)
		}
		id := uint64(1 << 30)
		far, refs := profileAt(float64(2*n)), refsFor(10)
		allocs := testing.AllocsPerRun(500, func() {
			id++
			if m.OnInsert(id, far, refs) != 0 {
				t.Fatal("a farther profile entered the standing result")
			}
			m.OnDelete(id)
		})
		if allocs > 1 {
			t.Fatalf("|cands| = %d: an insert outside the top-k and its delete allocate %.0f times, want <= 1", n, allocs)
		}
	}
}
