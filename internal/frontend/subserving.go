package frontend

import (
	"errors"
	"fmt"

	"pisd/internal/core"
	"pisd/internal/lsh"
	"pisd/internal/subs"
	"pisd/internal/vec"
)

// Streaming discovery subscriptions on the dynamic serving path
// (DESIGN.md §18). A subscription is registered with one normal dynamic
// search — admitted query leakage, shared with the result cache — and
// thereafter evaluated entirely inside the frontend on every successful
// insert and delete: the insert hook matches the new profile's own bucket
// write set against each subscription's standing read set, both pure PRF
// functions of metadata the frontend already holds, so the cloud observes
// exactly the update transcript it would with zero subscriptions
// registered.

// AttachSubscriptions installs a subscription manager on the dynamic
// serving path, delivering notifications through emit (synchronously,
// under the mutation that caused them; nil drops them). Must be called
// before serving traffic; returns the manager for direct inspection.
func (s *DynServing) AttachSubscriptions(emit func(subs.Notification)) *subs.Manager {
	s.subsm = subs.NewManager(emit)
	return s.subsm
}

// Subscriptions returns the attached manager (nil when detached).
func (s *DynServing) Subscriptions() *subs.Manager { return s.subsm }

// Subscribe registers a standing top-k query for subID's profile and
// returns its initial standing result. Seeding runs one normal dynamic
// search through the serving path's result cache — the one cloud-visible
// operation a subscription ever costs, indistinguishable from any other
// search for the same metadata. A degraded (partial) view refuses the
// registration: a standing result must never start from a shard subset.
func (s *DynServing) Subscribe(subID uint64, profile []float64, k int) ([]subs.Entry, error) {
	if s.subsm == nil {
		return nil, fmt.Errorf("frontend: no subscription manager attached")
	}
	meta, err := s.f.hash(profile)
	if err != nil {
		return nil, err
	}
	s.churn.Lock()
	defer s.churn.Unlock()
	refs, err := s.subRefs(meta)
	if err != nil {
		return nil, err
	}
	c, err := s.candidates(meta, nil)
	if err == nil && c.partial {
		err = errors.New("frontend: degraded to partial view")
	}
	if err != nil {
		return nil, fmt.Errorf("frontend: subscription %d seed search: %w", subID, err)
	}
	seed := make(map[uint64]float64, len(c.ids))
	for i, id := range c.ids {
		seed[id] = vec.Distance(profile, c.vecs[i])
	}
	return s.subsm.Register(subID, k, profile, subID, refs, seed)
}

// Unsubscribe removes a standing query, reporting whether it existed.
func (s *DynServing) Unsubscribe(subID uint64) bool {
	if s.subsm == nil {
		return false
	}
	return s.subsm.Unsubscribe(subID)
}

// subRefs computes meta's standing read set on every shard: each shard's
// index has its own geometry, so the per-shard reference lists are tagged
// with their shard before they meet the subscription index.
func (s *DynServing) subRefs(meta lsh.Metadata) ([]subs.Ref, error) {
	var out []subs.Ref
	for sh, c := range s.clients {
		refs, err := c.Refs(meta)
		if err != nil {
			return nil, fmt.Errorf("frontend: shard %d refs: %w", sh, err)
		}
		out = append(out, tagRefs(sh, refs)...)
	}
	return out, nil
}

// tagRefs lifts one shard's bucket references into the subscription
// index's per-shard keyspace.
func tagRefs(shard int, refs []core.BucketRef) []subs.Ref {
	out := make([]subs.Ref, len(refs))
	for i, r := range refs {
		out[i] = subs.Ref{Shard: shard, Table: r.Table, Pos: r.Pos}
	}
	return out
}

// insertWrites is a prepared insert's subscription write set: its own
// first-round bucket writes — Refs(meta) on the owning shard — so
// evaluating subscriptions against it adds zero cloud operations. nil when
// no manager is attached.
func (s *DynServing) insertWrites(u dynUpdate) []subs.Ref {
	if s.subsm == nil {
		return nil
	}
	refs, err := s.clients[u.shard].Refs(u.meta)
	if err != nil {
		return nil
	}
	return tagRefs(u.shard, refs)
}

// RescoreSubscriptions re-validates every standing candidate against the
// authoritative replicated profile stores: the batched re-score fan-out.
// Candidate identifiers are grouped by owning shard, fetched in one
// gap-tolerant batch per shard concurrently (a ReplicaGroup node serves
// the read from its healthiest current replica, failing over like any
// group read), decrypted, and applied in one manager pass — distances
// recomputed, group-wide-deleted candidates dropped, any resulting
// standing-result entries notified. All-or-nothing: a shard that cannot
// answer aborts the pass so a transient fault is never mistaken for a
// deletion. Returns the number of corrected candidates.
func (s *DynServing) RescoreSubscriptions() (int, error) {
	if s.subsm == nil {
		return 0, fmt.Errorf("frontend: no subscription manager attached")
	}
	s.churn.Lock()
	defer s.churn.Unlock()
	ids := s.subsm.CandidateIDs()
	if len(ids) == 0 {
		return 0, nil
	}
	byShard := make([][]uint64, len(s.nodes))
	for _, id := range ids {
		sh, err := s.routeShard(id)
		if err != nil {
			return 0, err
		}
		byShard[sh] = append(byShard[sh], id)
	}
	cts := make([][][]byte, len(s.nodes))
	for sh, err := range perShard(len(s.nodes), func(sh int) (err error) {
		if len(byShard[sh]) > 0 {
			cts[sh], err = s.nodes[sh].FetchProfiles(byShard[sh])
		}
		return err
	}) {
		if err != nil {
			return 0, fmt.Errorf("frontend: rescore fetch shard %d: %w", sh, err)
		}
	}
	var live []uint64
	var liveCts [][]byte
	for sh, shardIDs := range byShard {
		for i, ct := range cts[sh] {
			// An empty slot is a profile deleted group-wide: dropped below.
			if i < len(shardIDs) && len(ct) > 0 {
				live = append(live, shardIDs[i])
				liveCts = append(liveCts, ct)
			}
		}
	}
	c, err := s.f.decryptProfiles(s.cache, candidates{ids: live}, liveCts)
	if err != nil {
		return 0, fmt.Errorf("frontend: rescore: %w", err)
	}
	profiles := make(map[uint64][]float64, len(live))
	for i, id := range live {
		profiles[id] = c.vecs[i]
	}
	return s.subsm.Rescore(profiles), nil
}
