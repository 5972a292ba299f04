package frontend

import (
	"fmt"

	"pisd/internal/core"
)

// This file is the trusted front end's side of fleet self-healing: the
// repair and migration closures a shard-tier Repairer/Rebalancer drives.
// The shard tier decides WHEN to repair (health probes, version vectors);
// the closures here decide HOW, because only the front end holds the keys
// the dynamic scheme's re-masking machinery needs. The cloud-visible
// access pattern of every closure is the ordinary fetch/re-mask/store
// sweep of dynamic churn — see DESIGN.md §17 for the leakage argument.
//
// Lock discipline: the shard tier invokes these closures while holding
// the group's WRITE lock, and foreground churn holds the shard client's
// lock while taking that same write lock. The closures therefore must
// never touch the foreground client — each shard gets a dedicated forked
// client, created up front while no lock is held, so repair and churn
// can never deadlock on each other (and never contend, either).

// RepairNode is the replica surface the repair closures drive: the bucket
// store plus the encrypted-profile store and its enumeration endpoint.
// shard.ReplicaNode satisfies it structurally, so the shard tier can hand
// its replicas straight to these closures without an import cycle.
type RepairNode interface {
	core.BucketStore
	ProfileFetcher
	PutProfiles(profiles map[uint64][]byte) error
	DeleteProfile(id uint64) error
	ProfileIDs() ([]uint64, error)
	InstallDynIndex(idx *core.DynIndex) error
}

// ReplicaSync is the closure set that brings one replica of a partition to
// a healthy sibling's logical state under fresh masks: Prepare wipes dst to
// a freshly sealed empty shell (uniform for a restarted-empty, a lagging
// and a newly joined replica — a half-applied state is never trusted),
// CopyRange re-syncs bucket positions [lo, hi) of every table from src
// through the re-masking sweep, Finish mirrors the encrypted profile
// store, and Width is the positions per table the copy ranges over. A
// shard-tier Rebalancer drives the four in bounded online chunks; Repair
// composes them into one anti-entropy pass for a Repairer. The caller must
// hold the group's write lock around each step; the shard tier does.
type ReplicaSync struct {
	Prepare   func(s int, src, dst RepairNode) error
	CopyRange func(s int, src, dst RepairNode, lo, hi uint64) error
	Finish    func(s int, src, dst RepairNode) error
	Width     func(s int) uint64
}

// NewReplicaSync returns the replica-sync closures for the serving path's
// shards. Each shard's client is forked once, here, in shard order, for
// the closures' exclusive use, so repair and migration run beside
// foreground churn without lock coupling. A shard index out of range is
// an error from Prepare and CopyRange and a zero Width.
func (s *DynServing) NewReplicaSync() (ReplicaSync, error) {
	forks := make([]*core.DynClient, len(s.clients))
	for sh, c := range s.clients {
		var err error
		if forks[sh], err = c.Fork(); err != nil {
			return ReplicaSync{}, fmt.Errorf("frontend: fork client for shard %d: %w", sh, err)
		}
	}
	client := func(sh int) (*core.DynClient, error) {
		if sh < 0 || sh >= len(forks) {
			return nil, fmt.Errorf("frontend: replica sync: no dynamic client for shard %d", sh)
		}
		return forks[sh], nil
	}
	return ReplicaSync{
		Prepare: func(sh int, src, dst RepairNode) error {
			c, err := client(sh)
			if err != nil {
				return err
			}
			shell, err := c.NewShell()
			if err != nil {
				return fmt.Errorf("frontend: replica sync shard %d: build shell: %w", sh, err)
			}
			if err := dst.InstallDynIndex(shell); err != nil {
				return fmt.Errorf("frontend: replica sync shard %d: install shell: %w", sh, err)
			}
			return nil
		},
		CopyRange: func(sh int, src, dst RepairNode, lo, hi uint64) error {
			c, err := client(sh)
			if err != nil {
				return err
			}
			if err := c.ResyncRange(src, dst, lo, hi); err != nil {
				return fmt.Errorf("frontend: replica sync shard %d: %w", sh, err)
			}
			return nil
		},
		Finish: func(sh int, src, dst RepairNode) error {
			if err := mirrorProfiles(src, dst); err != nil {
				return fmt.Errorf("frontend: replica sync shard %d: %w", sh, err)
			}
			return nil
		},
		Width: func(sh int) uint64 {
			c, err := client(sh)
			if err != nil {
				return 0
			}
			return uint64(c.Width())
		},
	}, nil
}

// Repair returns the anti-entropy repair function: repair(s, src, dst)
// runs Prepare, then CopyRange over batch-wide position chunks (batch <= 0
// or wider than the index means one chunk), then Finish.
func (r ReplicaSync) Repair(batch int) func(s int, src, dst RepairNode) error {
	return func(s int, src, dst RepairNode) error {
		if err := r.Prepare(s, src, dst); err != nil {
			return err
		}
		w, step := r.Width(s), uint64(batch)
		if batch <= 0 || step > w {
			step = w
		}
		for lo := uint64(0); lo < w; lo += step {
			if err := r.CopyRange(s, src, dst, lo, min(lo+step, w)); err != nil {
				return err
			}
		}
		return r.Finish(s, src, dst)
	}
}

// mirrorProfiles makes dst's encrypted-profile store equal src's: every
// profile src holds is copied over (ciphertexts are opaque bytes — no
// re-encryption, and none needed, since profile ciphertexts are static
// per user) and every extra profile on dst is deleted. The caller
// serializes against writes.
func mirrorProfiles(src, dst RepairNode) error {
	ids, err := src.ProfileIDs()
	if err != nil {
		return fmt.Errorf("enumerate source profiles: %w", err)
	}
	if len(ids) > 0 {
		cts, err := fetchAll(src, ids)
		if err != nil {
			return fmt.Errorf("fetch source profiles: %w", err)
		}
		m := make(map[uint64][]byte, len(ids))
		for i, id := range ids {
			m[id] = cts[i]
		}
		if err := dst.PutProfiles(m); err != nil {
			return fmt.Errorf("store profiles: %w", err)
		}
	}
	want := make(map[uint64]struct{}, len(ids))
	for _, id := range ids {
		want[id] = struct{}{}
	}
	dstIDs, err := dst.ProfileIDs()
	if err != nil {
		return fmt.Errorf("enumerate destination profiles: %w", err)
	}
	for _, id := range dstIDs {
		if _, ok := want[id]; ok {
			continue
		}
		if err := dst.DeleteProfile(id); err != nil {
			return fmt.Errorf("delete stale profile %d: %w", id, err)
		}
	}
	return nil
}
