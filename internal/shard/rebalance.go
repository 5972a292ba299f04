package shard

import (
	"context"
	"fmt"
)

// AddReplica registers a new, empty member with the group and returns its
// replica index. The joiner starts lagging — excluded from reads — but
// not down, so it immediately receives every new write: the migration
// (Rebalancer.Migrate) only has to copy state that existed before the
// join, and the joiner's lag never grows while it copies.
func (g *ReplicaGroup) AddReplica(n ReplicaNode) (int, error) {
	if n == nil {
		return 0, fmt.Errorf("shard: group %d: nil replica", g.id)
	}
	g.mu.Lock()
	g.reps = append(g.reps, &replicaState{node: n, lagging: true})
	i := len(g.reps) - 1
	g.met.grow(len(g.reps))
	g.mu.Unlock()
	g.syncLagMetric()
	return i, nil
}

// Rebalancer migrates a partition's state onto a newly joined replica
// online, in bounded chunks, so foreground writes only ever stall for one
// chunk instead of a full-store copy. The three closures come from the
// frontend (which holds the keys): Prepare installs a freshly sealed
// empty shell on the joiner, CopyRange re-syncs bucket positions
// [lo, hi) of every table via the dynamic scheme's fetch/re-mask/store
// sweep, and Finish mirrors the non-bucket state (the encrypted profile
// store). See frontend.DynServing.NewReplicaSync.
//
// Correctness under concurrent churn needs no retry loop: the joiner
// receives every write issued after AddReplica directly, each chunk copy
// runs under the group write lock, and a chunk's source already contains
// any earlier write — so whichever order a write and its chunk land in,
// the joiner converges on the source's logical state.
type Rebalancer struct {
	// Prepare installs an empty sealed shell on dst; nil skips (dst
	// already has a shell installed).
	Prepare func(group int, src, dst ReplicaNode) error
	// CopyRange re-syncs bucket positions [lo, hi) from src to dst.
	CopyRange func(group int, src, dst ReplicaNode, lo, hi uint64) error
	// Finish mirrors the non-bucket state from src to dst; nil skips.
	Finish func(group int, src, dst ReplicaNode) error
	// Width is the bucket positions per table; Chunk how many positions
	// each step migrates (0 = all in one step).
	Width uint64
	Chunk uint64
}

// Migrate copies the group's state onto the joiner (a replica index from
// AddReplica) and admits it to read service. It is driven to completion
// synchronously; on error the joiner stays lagging and a later Migrate —
// or the anti-entropy repairer — can finish the job. A zero Width is
// refused before anything runs: it would copy nothing yet admit the
// joiner, serving reads from an empty shell.
func (rb *Rebalancer) Migrate(ctx context.Context, g *ReplicaGroup, joiner int) error {
	if rb.Width == 0 {
		return fmt.Errorf("shard: group %d: migration width is 0", g.id)
	}
	g.mu.Lock()
	if joiner < 0 || joiner >= len(g.reps) {
		g.mu.Unlock()
		return fmt.Errorf("shard: group %d: replica %d out of range [0,%d)", g.id, joiner, len(g.reps))
	}
	rep := g.reps[joiner]
	dst := rep.node
	srcIdx := -1
	for i, r := range g.reps {
		if i != joiner && !r.down && r.current(g.version) {
			srcIdx = i
			break
		}
	}
	if srcIdx < 0 {
		g.mu.Unlock()
		return fmt.Errorf("shard: group %d: no current replica to migrate from", g.id)
	}
	src := g.reps[srcIdx].node
	g.mu.Unlock()

	if rb.Prepare != nil {
		g.wmu.Lock()
		err := rb.Prepare(g.id, src, dst)
		g.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("shard: group %d: prepare joiner: %w", g.id, err)
		}
	}

	// Snapshot the joiner's write-failure count before the first chunk: a
	// write that fails on the joiner before any copy is re-covered by the
	// copy itself, but one that fails after its range was copied would be
	// silently lost — the admit step below refuses if the count moved.
	g.mu.Lock()
	wf0 := rep.writeFails
	g.mu.Unlock()

	chunk := rb.Chunk
	if chunk == 0 || chunk > rb.Width {
		chunk = rb.Width
	}
	for lo := uint64(0); lo < rb.Width; lo += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + chunk
		if hi > rb.Width {
			hi = rb.Width
		}
		g.wmu.Lock()
		err := rb.CopyRange(g.id, src, dst, lo, hi)
		g.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("shard: group %d: migrate [%d,%d): %w", g.id, lo, hi, err)
		}
	}

	// Final step under one write-lock hold: mirror the profile store,
	// stamp the joiner's server version, and admit it to reads.
	g.wmu.Lock()
	defer g.wmu.Unlock()
	defer g.syncLagMetric()
	if rb.Finish != nil {
		if err := rb.Finish(g.id, src, dst); err != nil {
			return fmt.Errorf("shard: group %d: finish joiner: %w", g.id, err)
		}
	}
	g.mu.Lock()
	v := g.version
	wf := rep.writeFails
	g.mu.Unlock()
	if wf != wf0 {
		return fmt.Errorf("shard: group %d: %d writes failed on joiner during migration; retry", g.id, wf-wf0)
	}
	if err := dst.ApplyVersion(v); err != nil {
		return fmt.Errorf("shard: group %d: stamp joiner version: %w", g.id, err)
	}
	g.mu.Lock()
	rep.applied = v
	rep.lagging = false
	rep.down = false
	rep.probeFails = 0
	rep.probeOKs = 0
	rep.readFaults = 0
	g.mu.Unlock()
	g.met.repair()
	return nil
}
