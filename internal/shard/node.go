// Package shard implements the cloud tier of the system: the front end
// partitions users across S cloud shards (one secure index and one
// encrypted-profile store per shard, built from a single global cuckoo
// placement — see core.BuildPartitioned), and a Pool fans every discovery
// trapdoor out to all shards concurrently, applies per-shard deadlines and
// a bounded retry, and merges the returned encrypted matches for the front
// end's ranking path. A single cloud node is the one-shard Pool: it runs
// the same build, install and fan-out path as S > 1.
//
// Because every shard index is a projection of the single-node index, the
// merged SecRec result is exactly the single-node result; a shard that is
// down degrades the answer to a flagged partial result instead of failing
// the discovery. Dynamic updates route to the owning shard only. A shard
// may be a ReplicaGroup of failover members; a Prober and a Repairer keep
// those healthy, both driven by the same background loop.
//
// Security: sharding does not change what the honest-but-curious cloud
// learns. Each shard observes the same trapdoor a single cloud node would
// (positions and one-time bucket masks, no keys) and its access pattern is
// the projection of the single-index access pattern onto its own users;
// colluding shards can reconstruct at most the single-node leakage.
package shard

import (
	"context"

	"pisd/internal/cloud"
	"pisd/internal/core"
)

// Node is one shard's cloud surface: the discovery, profile, image-less
// admin and dynamic-bucket operations a pool and the front end drive
// against a single shard. Local adapts an in-process cloud.Server; Remote
// adapts a transport server over TCP.
type Node interface {
	// Ping checks shard liveness.
	Ping(ctx context.Context) error
	// SecRecBatch runs a batch of discovery legs against the shard's index
	// in one exchange; result q depends on ts[q] alone. A single discovery
	// is a batch of one.
	SecRecBatch(ctx context.Context, ts []*core.Trapdoor) (ids [][]uint64, encProfiles [][][]byte, err error)
	// FetchProfiles returns encrypted profiles stored on this shard,
	// aligned with ids; an identifier the shard does not hold answers as
	// an empty entry.
	FetchProfiles(ids []uint64) ([][]byte, error)
	// PutProfiles uploads encrypted profiles to this shard.
	PutProfiles(profiles map[uint64][]byte) error
	// DeleteProfile removes an encrypted profile from this shard.
	DeleteProfile(id uint64) error
	// InstallIndex installs the shard's static secure index.
	InstallIndex(idx *core.Index) error
	// InstallDynIndex installs the shard's dynamic secure index.
	InstallDynIndex(idx *core.DynIndex) error
	// BucketStore exposes the shard's dynamic buckets so a core.DynClient
	// can route secure insert/delete protocols to the owning shard.
	core.BucketStore
}

// ReplicaNode is the surface a replica group needs from each of its
// members: the full shard Node surface plus the replication version/repair
// endpoints (see internal/cloud/replica.go). Local and Remote both
// implement it.
type ReplicaNode interface {
	Node
	// Version returns the replica's last recorded write version.
	Version(ctx context.Context) (uint64, error)
	// ApplyVersion records a write version on the replica (monotonic max).
	ApplyVersion(v uint64) error
	// StoreBucketsVersioned stores buckets and records the write version
	// atomically, so a concurrent version probe never observes the version
	// ahead of the bucket data.
	StoreBucketsVersioned(refs []core.BucketRef, buckets []core.DynBucket, v uint64) error
	// ProfileIDs lists the replica's stored encrypted-profile ids,
	// ascending — the repair endpoint for mirroring profile stores.
	ProfileIDs() ([]uint64, error)
}

// Local is a Node over an in-process cloud.Server: the single-binary
// deployment where all shards live in one process but keep separate
// indexes and profile stores.
type Local struct {
	CS *cloud.Server
}

// NewLocal wraps an in-process cloud server as a shard node.
func NewLocal(cs *cloud.Server) Local { return Local{CS: cs} }

// Ping implements Node.
func (l Local) Ping(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.CS.Ping()
}

// SecRecBatch implements Node.
func (l Local) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	return l.CS.SecRecBatch(ctx, ts)
}

// FetchProfiles implements Node.
func (l Local) FetchProfiles(ids []uint64) ([][]byte, error) { return l.CS.FetchProfiles(ids) }

// PutProfiles implements Node.
func (l Local) PutProfiles(profiles map[uint64][]byte) error {
	l.CS.PutProfiles(profiles)
	return nil
}

// DeleteProfile implements Node.
func (l Local) DeleteProfile(id uint64) error {
	l.CS.DeleteProfile(id)
	return nil
}

// InstallIndex implements Node.
func (l Local) InstallIndex(idx *core.Index) error {
	l.CS.SetIndex(idx)
	return nil
}

// InstallDynIndex implements Node.
func (l Local) InstallDynIndex(idx *core.DynIndex) error {
	l.CS.SetDynIndex(idx)
	return nil
}

// FetchBuckets implements core.BucketStore.
func (l Local) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	return l.CS.FetchBuckets(refs)
}

// StoreBuckets implements core.BucketStore.
func (l Local) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	return l.CS.StoreBuckets(refs, buckets)
}

// Version implements ReplicaNode.
func (l Local) Version(ctx context.Context) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return l.CS.Version(), nil
}

// ApplyVersion implements ReplicaNode.
func (l Local) ApplyVersion(v uint64) error {
	l.CS.ApplyVersion(v)
	return nil
}

// StoreBucketsVersioned implements ReplicaNode.
func (l Local) StoreBucketsVersioned(refs []core.BucketRef, buckets []core.DynBucket, v uint64) error {
	return l.CS.StoreBucketsVersioned(refs, buckets, v)
}

// ProfileIDs implements ReplicaNode.
func (l Local) ProfileIDs() ([]uint64, error) { return l.CS.ProfileIDs(), nil }
