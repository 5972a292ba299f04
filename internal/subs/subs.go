// Package subs implements streaming discovery subscriptions: standing
// top-k queries evaluated incrementally on the dynamic update path.
//
// A subscription is a subscriber's target profile plus a bounded standing
// result — the k nearest live profiles the subscriber has been told about.
// The Manager holds every subscription frontend-side (the same trust
// domain as the keys: targets and distances are plaintext here and only
// here) and is driven by the serving path's mutation hooks:
//
//   - On insert, the newly added profile is matched against subscriptions
//     by the address-collision predicate: the insert's own dedup'd bucket
//     write set Refs(newMeta) intersects the subscription's standing read
//     set Refs(subMeta) on the owning shard. Both sets are pure PRF
//     functions of metadata the frontend already holds, so evaluation
//     issues ZERO additional cloud operations — the cloud sees exactly
//     the update it would see with no subscriptions registered
//     (DESIGN.md §18).
//   - On delete, the departed profile is evicted from every standing
//     result that held it and the best remaining candidate is promoted,
//     which is that candidate's first disclosure to the subscriber.
//
// Ordering inside a standing result is by (distance, id) — ascending
// distance, ascending id on exact ties — which makes every transition,
// including the evicted and promoted identifiers, deterministic and
// therefore exactly mirrorable by a plaintext oracle.
//
// Both hooks update a standing result in place rather than re-ranking its
// candidates: a matched insert costs O(k) (compare with the worst member,
// binary-insert, drop the worst), and a delete costs O(|cands|) only when
// it removes a standing member and a runner-up must be found.
package subs

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"pisd/internal/vec"
)

// Ref identifies one dynamic-index bucket on one shard. Subscriptions and
// inserts are matched per shard: each shard's index has its own geometry,
// so a bucket reference is only meaningful alongside its shard.
type Ref struct {
	Shard int
	Table int
	Pos   uint64
}

// Entry is one member of a subscription's standing top-k result.
type Entry struct {
	ID       uint64
	Distance float64
}

// compareEntries is the standing-result order: ascending distance, then
// ascending id.
func compareEntries(a, b Entry) int {
	if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// Notification reports one disclosure: ID entered SubID's standing top-k.
type Notification struct {
	// SubID is the subscriber whose standing result changed.
	SubID uint64
	// ID is the profile that entered the standing top-k.
	ID uint64
	// Distance is the exact Euclidean distance between the subscriber's
	// target and the entering profile.
	Distance float64
	// EvictedID is the profile the entry pushed out of the standing
	// top-k (0 when the result had a free slot).
	EvictedID uint64
	// Promoted is true when the entry was caused by a deletion promoting
	// a runner-up, rather than by the entering profile's own insert.
	Promoted bool
	// Seq is the manager's emission sequence number, strictly increasing
	// across all subscriptions (stream ordering, not compared by the
	// differential suites).
	Seq uint64
}

// subscription is one standing query's frontend-side state: the full live
// candidate set (every matched, not-yet-deleted profile with its exact
// distance) and the current top-k view over it. Keeping all candidates —
// not just the top k — is what makes delete-time promotion exact.
type subscription struct {
	id      uint64
	k       int
	exclude uint64
	target  []float64
	refs    []Ref
	cands   map[uint64]float64
	// top is the standing result: the k smallest candidates, ascending by
	// (distance, id). A candidate is a member iff it does not come after
	// top's last entry.
	top []Entry
	// pass is the last OnInsert pass that matched this subscription, so a
	// match over several shared buckets is counted once without a set.
	pass uint64
}

// rank recomputes the standing result from every candidate: the full
// re-rank registration and re-scoring use.
func (s *subscription) rank() []Entry {
	all := make([]Entry, 0, len(s.cands))
	for id, d := range s.cands {
		all = append(all, Entry{ID: id, Distance: d})
	}
	slices.SortFunc(all, compareEntries)
	return slices.Clone(all[:min(len(all), s.k)])
}

// admit adds e, not yet a candidate, and reports whether it entered the
// standing result and which member it pushed out (0 when a slot was free).
func (s *subscription) admit(e Entry) (evicted uint64, entered bool) {
	s.cands[e.ID] = e.Distance
	if len(s.top) == s.k {
		worst := s.top[s.k-1]
		if compareEntries(e, worst) > 0 {
			return 0, false
		}
		evicted = worst.ID
		s.top = s.top[:s.k-1]
	}
	i, _ := slices.BinarySearchFunc(s.top, e, compareEntries)
	s.top = slices.Insert(s.top, i, e)
	return evicted, true
}

// drop removes candidate id and returns the runner-up its departure
// promoted into the standing result, if any. Only a member's departure
// promotes: the runner-up is the best candidate after the old worst member.
func (s *subscription) drop(id uint64) (promoted Entry, ok bool) {
	e := Entry{ID: id, Distance: s.cands[id]}
	delete(s.cands, id)
	i, member := slices.BinarySearchFunc(s.top, e, compareEntries)
	if !member {
		return Entry{}, false
	}
	worst := s.top[len(s.top)-1]
	s.top = slices.Delete(s.top, i, i+1)
	if len(s.cands) == len(s.top) {
		return Entry{}, false
	}
	for cid, d := range s.cands {
		c := Entry{ID: cid, Distance: d}
		if compareEntries(c, worst) > 0 && (!ok || compareEntries(c, promoted) < 0) {
			promoted, ok = c, true
		}
	}
	s.top = append(s.top, promoted)
	return promoted, true
}

// entries returns a copy of the current standing result.
func (s *subscription) entries() []Entry {
	out := make([]Entry, len(s.top))
	copy(out, s.top)
	return out
}

// Manager holds every registered subscription and evaluates them against
// the mutation stream. Safe for concurrent use; the emit callback runs
// synchronously under the manager lock, in Seq order.
type Manager struct {
	mu    sync.Mutex
	subs  map[uint64]*subscription
	byRef map[Ref]map[*subscription]struct{}
	// holders lists, for every candidate id, the subscriptions whose
	// candidate set holds it, ascending by subscription id.
	holders map[uint64][]*subscription
	emit    func(Notification)
	seq     uint64
	// pass numbers OnInsert calls; matched is their reused match buffer.
	pass    uint64
	matched []*subscription
}

// NewManager returns an empty manager delivering notifications through
// emit (nil drops them).
func NewManager(emit func(Notification)) *Manager {
	return &Manager{
		subs:    make(map[uint64]*subscription),
		byRef:   make(map[Ref]map[*subscription]struct{}),
		holders: make(map[uint64][]*subscription),
		emit:    emit,
	}
}

func compareSubs(a, b *subscription) int { return cmp.Compare(a.id, b.id) }

// hold records that s's candidate set holds id. Callers hold m.mu.
func (m *Manager) hold(id uint64, s *subscription) {
	hs := m.holders[id]
	i, _ := slices.BinarySearchFunc(hs, s, compareSubs)
	m.holders[id] = slices.Insert(hs, i, s)
}

// release records that s's candidate set no longer holds id. Callers hold
// m.mu.
func (m *Manager) release(id uint64, s *subscription) {
	hs := m.holders[id]
	i, ok := slices.BinarySearchFunc(hs, s, compareSubs)
	switch {
	case !ok:
	case len(hs) == 1:
		delete(m.holders, id)
	default:
		m.holders[id] = slices.Delete(hs, i, i+1)
	}
}

// Register adds a standing query: target is the subscriber's plaintext
// profile, refs its per-shard standing read set, and seed the candidate
// distances of a fresh search (the registration answer the subscriber
// already received — seeding emits no notifications). excludeID is
// filtered from candidates, matching the discovery path's self-exclusion.
func (m *Manager) Register(subID uint64, k int, target []float64, excludeID uint64, refs []Ref, seed map[uint64]float64) ([]Entry, error) {
	if subID == 0 {
		return nil, fmt.Errorf("subs: subscription id must be non-zero")
	}
	if k <= 0 {
		return nil, fmt.Errorf("subs: subscription %d: k must be positive, got %d", subID, k)
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("subs: subscription %d: empty reference set", subID)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.subs[subID]; ok {
		return nil, fmt.Errorf("subs: subscription %d already registered", subID)
	}
	s := &subscription{
		id:      subID,
		k:       k,
		exclude: excludeID,
		target:  append([]float64(nil), target...),
		refs:    dedupRefs(refs),
		cands:   make(map[uint64]float64, len(seed)),
	}
	for id, d := range seed {
		if excludeID != 0 && id == excludeID {
			continue
		}
		s.cands[id] = d
		m.hold(id, s)
	}
	s.top = s.rank()
	m.subs[subID] = s
	for _, r := range s.refs {
		set := m.byRef[r]
		if set == nil {
			set = make(map[*subscription]struct{})
			m.byRef[r] = set
		}
		set[s] = struct{}{}
	}
	smet.registered.Set(int64(len(m.subs)))
	return s.entries(), nil
}

// Unsubscribe removes a standing query, reporting whether it existed.
func (m *Manager) Unsubscribe(subID uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[subID]
	if !ok {
		return false
	}
	delete(m.subs, subID)
	for _, r := range s.refs {
		if set := m.byRef[r]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(m.byRef, r)
			}
		}
	}
	for id := range s.cands {
		m.release(id, s)
	}
	smet.registered.Set(int64(len(m.subs)))
	return true
}

// Len returns the number of live subscriptions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}

// TopK returns subID's current standing result, ascending by
// (distance, id), and whether the subscription exists.
func (m *Manager) TopK(subID uint64) ([]Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[subID]
	if !ok {
		return nil, false
	}
	return s.entries(), true
}

// OnInsert evaluates one successful insert against every subscription
// whose standing read set intersects the insert's bucket write set,
// emitting a notification for each standing result the new profile
// enters. refs must be the insert's own (owning-shard) reference set and
// profile its plaintext; the evaluation is pure frontend computation.
// Returns the number of notifications emitted.
func (m *Manager) OnInsert(id uint64, profile []float64, refs []Ref) int {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pass++
	matched := m.matched[:0]
	for _, r := range refs {
		for s := range m.byRef[r] {
			if s.pass != m.pass {
				s.pass = m.pass
				matched = append(matched, s)
			}
		}
	}
	slices.SortFunc(matched, compareSubs)
	emitted := 0
	for _, s := range matched {
		if id == s.id || (s.exclude != 0 && id == s.exclude) {
			continue
		}
		if _, ok := s.cands[id]; ok {
			continue
		}
		e := Entry{ID: id, Distance: vec.Distance(s.target, profile)}
		m.hold(id, s)
		if evicted, entered := s.admit(e); entered {
			m.notify(Notification{SubID: s.id, ID: id, Distance: e.Distance, EvictedID: evicted})
			emitted++
		}
	}
	smet.evals.Add(int64(len(matched)))
	// The buffer is kept for the next pass without pinning the matches.
	clear(matched)
	m.matched = matched[:0]
	smet.evalNs.ObserveSince(start)
	return emitted
}

// OnDelete evicts one successfully deleted profile from every standing
// candidate set that held it, and emits a notification for each runner-up
// the eviction promotes into a standing top-k (that candidate's first
// disclosure). Only the subscriptions holding the id are visited, in
// subscription-id order. Returns the number of notifications emitted.
func (m *Manager) OnDelete(id uint64) int {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	hs := m.holders[id]
	delete(m.holders, id)
	emitted := 0
	for _, s := range hs {
		if p, ok := s.drop(id); ok {
			m.notify(Notification{SubID: s.id, ID: p.ID, Distance: p.Distance, Promoted: true})
			emitted++
		}
	}
	smet.evals.Add(int64(len(hs)))
	smet.evalNs.ObserveSince(start)
	return emitted
}

// CandidateIDs returns the union of every subscription's live candidate
// identifiers, ascending — the id set a re-score pass must fetch.
func (m *Manager) CandidateIDs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Sorted(maps.Keys(m.holders))
}

// Rescore replaces every candidate's distance with one recomputed from
// the authoritative profiles (keyed by candidate id; a candidate missing
// from the map is dropped as deleted) and re-ranks every standing result,
// emitting notifications for any entries the corrections cause. It is the
// apply step of the batched re-score fan-out: the caller fetched profiles
// from the replicated cloud tier in per-shard batches. Returns the number
// of candidates whose distance or membership changed.
func (m *Manager) Rescore(profiles map[uint64][]float64) int {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := 0
	for _, subID := range slices.Sorted(maps.Keys(m.subs)) {
		s := m.subs[subID]
		dirty := false
		for id, old := range s.cands {
			p, ok := profiles[id]
			if !ok {
				delete(s.cands, id)
				m.release(id, s)
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
			m.rerank(s)
		}
		smet.evals.Inc()
	}
	smet.evalNs.ObserveSince(start)
	return changed
}

// rerank replaces s's standing result with a full re-rank and notifies
// every new member as promoted, in (distance, id) order, pairing members
// that fell out (dropped candidates aside) with the entries positionally
// in ascending-id order. Callers hold m.mu.
func (m *Manager) rerank(s *subscription) {
	next := s.rank()
	stays := make(map[uint64]bool, len(next))
	for _, e := range next {
		stays[e.ID] = true
	}
	was := make(map[uint64]bool, len(s.top))
	var evicted []uint64
	for _, e := range s.top {
		was[e.ID] = true
		if _, live := s.cands[e.ID]; live && !stays[e.ID] {
			evicted = append(evicted, e.ID)
		}
	}
	slices.Sort(evicted)
	s.top = next
	i := 0
	for _, e := range next {
		if was[e.ID] {
			continue
		}
		n := Notification{SubID: s.id, ID: e.ID, Distance: e.Distance, Promoted: true}
		if i < len(evicted) {
			n.EvictedID = evicted[i]
		}
		i++
		m.notify(n)
	}
}

// notify stamps n with the next sequence number and emits it. Callers hold
// m.mu.
func (m *Manager) notify(n Notification) {
	m.seq++
	n.Seq = m.seq
	smet.notifications.Inc()
	if m.emit != nil {
		m.emit(n)
	}
}

// dedupRefs drops duplicate references, preserving first-seen order.
func dedupRefs(refs []Ref) []Ref {
	seen := make(map[Ref]struct{}, len(refs))
	out := make([]Ref, 0, len(refs))
	for _, r := range refs {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = struct{}{}
		out = append(out, r)
	}
	return out
}
