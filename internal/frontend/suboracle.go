package frontend

import (
	"fmt"
	"sort"
	"sync"

	"pisd/internal/core"
	"pisd/internal/subs"
	"pisd/internal/vec"
)

// SubOracle is the plaintext reference for streaming subscriptions: it
// maintains every standing top-k set under the same churn script the
// encrypted serving path executes, entirely from plaintext profiles and
// forked dynamic clients (so the foreground clients' randomness streams
// are untouched), and predicts the exact notification sequence — entering
// id, distance, evicted id, promotion flag — every mutation must emit.
// Any divergence between the serving path's notifications and the
// oracle's is a bug in the subscription plumbing (matching, routing,
// batching, locking or failover), never an approximation artifact.
//
// The oracle mirrors the serving path's deterministic transition rules:
// candidates ordered by (distance, id); entries notified in that order;
// concurrent evictions paired positionally by ascending id; an entry
// caused by a delete or re-score is flagged promoted. Sequence numbers
// are the one field left unmirrored — they order the global emission
// stream, which interleaving-dependent schedules may permute.
type SubOracle struct {
	f       *Frontend
	owner   func(uint64) int
	clients []*core.DynClient

	mu       sync.Mutex
	profiles map[uint64][]float64
	subs     map[uint64]*oracleSub
}

// oracleSub is one standing query's plaintext state.
type oracleSub struct {
	id      uint64
	k       int
	exclude uint64
	target  []float64
	refs    map[subs.Ref]bool
	cands   map[uint64]float64
	top     map[uint64]bool
}

// NewSubOracle builds a subscription oracle over the same sharded
// deployment the serving path drives: one forked client per shard (for
// reference-set computation under each shard's geometry) and the routing
// function mutations use. A nil owner means core.DefaultOwner.
func (f *Frontend) NewSubOracle(shards []DynShard, owner func(uint64) int) (*SubOracle, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("frontend: subscription oracle needs shards")
	}
	if owner == nil {
		owner = core.DefaultOwner(len(shards))
	}
	clients := make([]*core.DynClient, len(shards))
	for s := range shards {
		c, err := shards[s].Client.Fork()
		if err != nil {
			return nil, fmt.Errorf("frontend: fork shard %d client: %w", s, err)
		}
		clients[s] = c
	}
	return &SubOracle{
		f:        f,
		owner:    owner,
		clients:  clients,
		profiles: make(map[uint64][]float64),
		subs:     make(map[uint64]*oracleSub),
	}, nil
}

// PutProfile records a pre-existing user (index build time).
func (o *SubOracle) PutProfile(id uint64, profile []float64) {
	o.mu.Lock()
	o.profiles[id] = profile
	o.mu.Unlock()
}

// Register mirrors DynServing.Subscribe: the standing read set is
// recomputed independently on every shard's forked client, and the seed
// candidates — the ids the serving path's registration search returned —
// are distance-scored against the oracle's plaintext store. Seeding emits
// no notifications; the initial standing result is returned for direct
// comparison. An unknown seed id is an error: the encrypted search
// produced an identifier the oracle never saw.
func (o *SubOracle) Register(subID uint64, k int, target []float64, seedIDs []uint64) ([]subs.Entry, error) {
	meta := o.f.family.Hash(target)
	refs := make(map[subs.Ref]bool)
	for sh, c := range o.clients {
		rs, err := c.Refs(meta)
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			refs[subs.Ref{Shard: sh, Table: r.Table, Pos: r.Pos}] = true
		}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.subs[subID]; ok {
		return nil, fmt.Errorf("frontend: oracle subscription %d already registered", subID)
	}
	s := &oracleSub{
		id:      subID,
		k:       k,
		exclude: subID,
		target:  append([]float64(nil), target...),
		refs:    refs,
		cands:   make(map[uint64]float64),
	}
	for _, id := range seedIDs {
		if id == subID {
			continue
		}
		p, ok := o.profiles[id]
		if !ok {
			return nil, fmt.Errorf("frontend: oracle has no profile for seed candidate %d", id)
		}
		s.cands[id] = vec.Distance(target, p)
	}
	s.top = s.topSet()
	o.subs[subID] = s
	return s.entries(), nil
}

// Unsubscribe mirrors DynServing.Unsubscribe.
func (o *SubOracle) Unsubscribe(subID uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.subs[subID]; !ok {
		return false
	}
	delete(o.subs, subID)
	return true
}

// Insert applies one successful insert and returns the notifications the
// serving path must emit for it, in emission order.
func (o *SubOracle) Insert(id uint64, profile []float64) ([]subs.Notification, error) {
	sh := o.owner(id) % len(o.clients)
	if sh < 0 {
		sh += len(o.clients)
	}
	rs, err := o.clients[sh].Refs(o.f.family.Hash(profile))
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.profiles[id] = profile
	var out []subs.Notification
	for _, s := range o.sorted() {
		if id == s.id || id == s.exclude {
			continue
		}
		hit := false
		for _, r := range rs {
			if s.refs[subs.Ref{Shard: sh, Table: r.Table, Pos: r.Pos}] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if _, ok := s.cands[id]; ok {
			continue
		}
		s.cands[id] = vec.Distance(s.target, profile)
		out = append(out, s.retop(false)...)
	}
	return out, nil
}

// Delete applies one successful delete and returns the promotion
// notifications the serving path must emit for it.
func (o *SubOracle) Delete(id uint64) []subs.Notification {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.profiles, id)
	var out []subs.Notification
	for _, s := range o.sorted() {
		if _, ok := s.cands[id]; !ok {
			continue
		}
		delete(s.cands, id)
		delete(s.top, id)
		out = append(out, s.retop(true)...)
	}
	return out
}

// TopK returns subID's standing result, ascending by (distance, id).
func (o *SubOracle) TopK(subID uint64) ([]subs.Entry, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.subs[subID]
	if !ok {
		return nil, false
	}
	return s.entries(), true
}

func (o *SubOracle) sorted() []*oracleSub {
	out := make([]*oracleSub, 0, len(o.subs))
	for _, s := range o.subs {
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out
}

func (s *oracleSub) topSet() map[uint64]bool {
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

func (s *oracleSub) entries() []subs.Entry {
	out := make([]subs.Entry, 0, len(s.top))
	for id := range s.top {
		out = append(out, subs.Entry{ID: id, Distance: s.cands[id]})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Distance != out[b].Distance {
			return out[a].Distance < out[b].Distance
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// retop recomputes the standing set and returns the expected
// notifications: entries in (distance, id) order, evictions paired
// positionally in ascending-id order — the serving path's exact rule.
func (s *oracleSub) retop(promoted bool) []subs.Notification {
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
	if len(entered) == 0 {
		return nil
	}
	sort.Slice(entered, func(a, b int) bool {
		da, db := s.cands[entered[a]], s.cands[entered[b]]
		if da != db {
			return da < db
		}
		return entered[a] < entered[b]
	})
	sort.Slice(evicted, func(a, b int) bool { return evicted[a] < evicted[b] })
	out := make([]subs.Notification, 0, len(entered))
	for i, id := range entered {
		n := subs.Notification{
			SubID:    s.id,
			ID:       id,
			Distance: s.cands[id],
			Promoted: promoted,
		}
		if i < len(evicted) {
			n.EvictedID = evicted[i]
		}
		out = append(out, n)
	}
	return out
}
