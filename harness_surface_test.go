package pisd_test

import (
	"context"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/frontend"
	"pisd/internal/segstore"
	"pisd/internal/shard"
)

// benchmark/ is its own module (replace pisd => ../), so this module's
// `go build ./... && go test ./...` cannot notice when an internal
// signature the harness imports moves — and the harness may not change in
// the PR that moves it. These compile-time assertions pin exactly that
// surface; each line names the harness file that needs it. A line that
// stops compiling means `cd benchmark && go vet ./...` is broken too.
var (
	// benchmark/deploy.go: boot a static and a dynamic deployment.
	_ func(*shard.Remote, int)                                     = (*shard.Remote).SetConns
	_ func(*shard.Remote) (sent, received int64)                   = (*shard.Remote).Traffic
	_ shard.ReplicaNode                                            = (*shard.Remote)(nil) // also a shard.Node
	_ func(*shard.Pool, int, *core.Index, map[uint64][]byte) error = (*shard.Pool).InstallShard
	_ func(*shard.ReplicaGroup, *core.DynIndex) error              = (*shard.ReplicaGroup).InstallDynIndex
	_ func(*shard.ReplicaGroup, map[uint64][]byte) error           = (*shard.ReplicaGroup).PutProfiles
	_ frontend.DynNode                                             = (*shard.ReplicaGroup)(nil)
	_ frontend.FanoutBatchServer                                   = (*shard.Pool)(nil)

	_ func(*frontend.Frontend, frontend.FanoutBatchServer, frontend.ServingConfig) (*frontend.Serving, error)                                   = (*frontend.Frontend).NewServing
	_ func(*frontend.Frontend, []frontend.DynShard, []frontend.DynNode, func(uint64) int, frontend.ServingConfig) (*frontend.DynServing, error) = (*frontend.Frontend).NewDynServing

	_ int = frontend.DefaultServingConfig().CacheEntries

	// benchmark/ingest.go: profiles and segments installed on the cloud
	// server directly.
	_ func(*cloud.Server, uint64, []byte)  = (*cloud.Server).PutProfile
	_ func(*cloud.Server, *segstore.Store) = (*cloud.Server).SetSegmentStore

	// benchmark/trace_static.go: the staged replay times one discovery at
	// the pool, at each leg and at the cloud server.
	_ func(*shard.Pool, context.Context, *core.Trapdoor) ([]uint64, [][]byte, bool, error) = (*shard.Pool).SecRec
	_ func(*shard.Remote, context.Context, *core.Trapdoor) ([]uint64, [][]byte, error)     = (*shard.Remote).SecRec
	_ func(*cloud.Server, *core.Trapdoor) ([]uint64, [][]byte, error)                      = (*cloud.Server).SecRec

	// benchmark/trace_dyn.go: the replay fetches from the group, and
	// spanNode embeds a DynNode and overrides these four ctx-free methods.
	_ func(*shard.ReplicaGroup, []uint64) ([][]byte, error) = (*shard.ReplicaGroup).FetchProfiles
	_ interface {
		FetchBuckets([]core.BucketRef) ([]core.DynBucket, error)
		StoreBuckets([]core.BucketRef, []core.DynBucket) error
		PutProfiles(map[uint64][]byte) error
		DeleteProfile(uint64) error
	} = frontend.DynNode(nil)
)
