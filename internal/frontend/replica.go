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

// forkClients forks each shard's dynamic client once, for exclusive use
// by the repair machinery. Shards without a client get a nil slot; using
// one is reported at repair time, not construction.
func forkClients(shards []DynShard) ([]*core.DynClient, error) {
	forks := make([]*core.DynClient, len(shards))
	for s := range shards {
		if shards[s].Client == nil {
			continue
		}
		c, err := shards[s].Client.Fork()
		if err != nil {
			return nil, fmt.Errorf("frontend: fork client for shard %d: %w", s, err)
		}
		forks[s] = c
	}
	return forks, nil
}

// NewReplicaRepair returns the anti-entropy repair function for a
// replicated dynamic deployment: repair(s, src, dst) rebuilds replica dst
// of shard s from its healthy sibling src, after which dst holds the same
// logical state as src under fresh masks. It wipes dst to a freshly
// sealed empty shell (uniform for a restarted-empty and a lagging
// replica — a half-applied state is never trusted), sweeps every bucket
// from src through the re-masking resync in batches of the given position
// width, and mirrors the encrypted profile store. The caller must hold
// the group's write lock so no write interleaves the copy; the shard
// tier's Repairer does.
func NewReplicaRepair(shards []DynShard, batch int) (func(s int, src, dst RepairNode) error, error) {
	forks, err := forkClients(shards)
	if err != nil {
		return nil, err
	}
	return func(s int, src, dst RepairNode) error {
		if s < 0 || s >= len(forks) || forks[s] == nil {
			return fmt.Errorf("frontend: repair: no dynamic client for shard %d", s)
		}
		c := forks[s]
		shell, err := c.NewShell()
		if err != nil {
			return fmt.Errorf("frontend: repair shard %d: build shell: %w", s, err)
		}
		if err := dst.InstallDynIndex(shell); err != nil {
			return fmt.Errorf("frontend: repair shard %d: install shell: %w", s, err)
		}
		if err := c.Resync(src, dst, batch); err != nil {
			return fmt.Errorf("frontend: repair shard %d: %w", s, err)
		}
		if err := mirrorProfiles(src, dst); err != nil {
			return fmt.Errorf("frontend: repair shard %d: %w", s, err)
		}
		return nil
	}, nil
}

// ReplicaMigration is the closure set a shard-tier Rebalancer drives to
// migrate one partition's state onto a newly joined replica in bounded
// online chunks (prepare once, copy ranges, finish with the profile
// store). Width is the bucket positions per table of the partition's
// index — the range the rebalancer chunks over.
type ReplicaMigration struct {
	Prepare   func(s int, src, dst RepairNode) error
	CopyRange func(s int, src, dst RepairNode, lo, hi uint64) error
	Finish    func(s int, src, dst RepairNode) error
	Width     func(s int) uint64
}

// NewReplicaMigration returns the migration closures for a replicated
// dynamic deployment, backed by the same kind of pre-forked per-shard
// clients as NewReplicaRepair, so chunked migration runs beside
// foreground churn without lock coupling.
func NewReplicaMigration(shards []DynShard) (ReplicaMigration, error) {
	forks, err := forkClients(shards)
	if err != nil {
		return ReplicaMigration{}, err
	}
	client := func(s int) (*core.DynClient, error) {
		if s < 0 || s >= len(forks) || forks[s] == nil {
			return nil, fmt.Errorf("frontend: migrate: no dynamic client for shard %d", s)
		}
		return forks[s], nil
	}
	return ReplicaMigration{
		Prepare: func(s int, src, dst RepairNode) error {
			c, err := client(s)
			if err != nil {
				return err
			}
			shell, err := c.NewShell()
			if err != nil {
				return fmt.Errorf("frontend: migrate shard %d: build shell: %w", s, err)
			}
			if err := dst.InstallDynIndex(shell); err != nil {
				return fmt.Errorf("frontend: migrate shard %d: install shell: %w", s, err)
			}
			return nil
		},
		CopyRange: func(s int, src, dst RepairNode, lo, hi uint64) error {
			c, err := client(s)
			if err != nil {
				return err
			}
			if err := c.ResyncRange(src, dst, lo, hi); err != nil {
				return fmt.Errorf("frontend: migrate shard %d: %w", s, err)
			}
			return nil
		},
		Finish: func(s int, src, dst RepairNode) error {
			if err := mirrorProfiles(src, dst); err != nil {
				return fmt.Errorf("frontend: migrate shard %d: %w", s, err)
			}
			return nil
		},
		Width: func(s int) uint64 {
			if s < 0 || s >= len(shards) || shards[s].Index == nil {
				return 0
			}
			return uint64(shards[s].Index.Width())
		},
	}, nil
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
