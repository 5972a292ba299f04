package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/frontend"
	"pisd/internal/shard"
	"pisd/internal/subs"
	"pisd/internal/transport"
)

// Deployments are booted in-process but over real loopback TCP: every
// cloud server sits behind a transport.Server and is reached through a
// shard.Remote, exactly as pisd-server and pisd-frontend are wired.

const (
	staticShards = 2
	dynGroups    = 2
	dynReplicas  = 2
	// connsPerShard sizes each Remote's connection pool, as the serving
	// benchmarks of the repository do.
	connsPerShard = 4
	topK          = 10
)

// cloudNode is one cloud server process stand-in: the server state, its
// TCP endpoint and the frontend's connection pool to it.
type cloudNode struct {
	cs     *cloud.Server
	srv    *transport.Server
	remote *shard.Remote
}

func startNode() (*cloudNode, error) {
	cs := cloud.New()
	srv := transport.NewServer(cs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	remote := shard.NewRemote(addr)
	remote.SetConns(connsPerShard)
	return &cloudNode{cs: cs, srv: srv, remote: remote}, nil
}

func (n *cloudNode) stop() {
	n.remote.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A shutdown that times out leaves only goroutines of this process
	// behind, and the process exits after the run.
	_ = n.srv.Shutdown(ctx)
}

func stopNodes(nodes []*cloudNode) {
	for _, n := range nodes {
		n.stop()
	}
}

// wireBytes sums the serialized SF↔CS traffic, both directions, over the
// nodes' live connections.
func wireBytes(nodes []*cloudNode) (sent, received int64) {
	for _, n := range nodes {
		tx, rx := n.remote.Traffic()
		sent += tx
		received += rx
	}
	return sent, received
}

// memberUploads returns the first n profiles as uploads without metadata,
// so hashing is part of the timed set-up, as it is for a thin client.
func memberUploads(profiles [][]float64, n int) []frontend.Upload {
	uploads := make([]frontend.Upload, n)
	for i := range uploads {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: profiles[i]}
	}
	return uploads
}

// staticDeploy is the static scheme served by 2 shards × 1 replica.
type staticDeploy struct {
	sf      *frontend.Frontend
	nodes   []*cloudNode
	pool    *shard.Pool
	serving *frontend.Serving
	// cloudBytes is what the cloud tier holds: indexes plus ciphertexts.
	cloudBytes int64
}

func (d *staticDeploy) close() { stopNodes(d.nodes) }

func (d *staticDeploy) stack() discoverStack {
	return discoverStack{sf: d.sf, pool: d.pool, serving: d.serving, nodes: d.nodes}
}

// bootStatic takes uploads in hand to a serving deployment and returns how
// long that took.
func bootStatic(dim int, uploads []frontend.Upload, keySeed string) (*staticDeploy, time.Duration, error) {
	start := time.Now()
	cfg := frontend.ConfigForPopulation(dim, len(uploads))
	cfg.KeySeed = keySeed
	sf, err := frontend.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	shards, err := sf.BuildShardedIndex(uploads, staticShards, nil)
	if err != nil {
		return nil, 0, err
	}
	d := &staticDeploy{sf: sf}
	members := make([]shard.Node, staticShards)
	for s := range members {
		n, err := startNode()
		if err != nil {
			d.close()
			return nil, 0, err
		}
		d.nodes = append(d.nodes, n)
		members[s] = n.remote
	}
	if d.pool, err = shard.NewPool(shard.DefaultConfig(), members...); err != nil {
		d.close()
		return nil, 0, err
	}
	for s, sh := range shards {
		if err := d.pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			d.close()
			return nil, 0, err
		}
		d.cloudBytes += int64(sh.Index.SizeBytes()) + ciphertextBytes(sh.EncProfiles)
	}
	if d.serving, err = sf.NewServing(d.pool, frontend.DefaultServingConfig()); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func ciphertextBytes(cts map[uint64][]byte) int64 {
	var n int64
	for _, ct := range cts {
		n += int64(len(ct))
	}
	return n
}

// dynDeploy is the dynamic scheme served by 2 replica groups × 2 replicas
// with standing subscriptions attached.
type dynDeploy struct {
	sf      *frontend.Frontend
	nodes   []*cloudNode // group-major: nodes[g*dynReplicas+r]
	groups  []*shard.ReplicaGroup
	shards  []frontend.DynShard
	serving *frontend.DynServing
	subsm   *subs.Manager
	// notifications counts emitted subscription notifications.
	notifications int
	cloudBytes    int64
}

func (d *dynDeploy) close() { stopNodes(d.nodes) }

// bootDyn takes uploads in hand to a serving dynamic deployment with the
// first nSubs members subscribed. wrap, when non-nil, decorates each
// group's node before the serving path sees it (the traced run's spans).
func bootDyn(dim int, uploads []frontend.Upload, nSubs int, keySeed string, wrap func(g int, n frontend.DynNode) frontend.DynNode) (*dynDeploy, time.Duration, error) {
	start := time.Now()
	cfg := frontend.ConfigForPopulation(dim, len(uploads))
	cfg.KeySeed = keySeed
	sf, err := frontend.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	shards, err := sf.BuildShardedDynamicIndex(uploads, dynGroups, nil)
	if err != nil {
		return nil, 0, err
	}
	d := &dynDeploy{sf: sf, shards: shards}
	dynNodes := make([]frontend.DynNode, dynGroups)
	for g := 0; g < dynGroups; g++ {
		members := make([]shard.ReplicaNode, dynReplicas)
		for r := range members {
			n, err := startNode()
			if err != nil {
				d.close()
				return nil, 0, err
			}
			d.nodes = append(d.nodes, n)
			members[r] = n.remote
		}
		group, err := shard.NewReplicaGroup(g, shard.GroupConfig{}, members...)
		if err != nil {
			d.close()
			return nil, 0, err
		}
		if err := group.InstallDynIndex(shards[g].Index); err != nil {
			d.close()
			return nil, 0, err
		}
		if err := group.PutProfiles(shards[g].EncProfiles); err != nil {
			d.close()
			return nil, 0, err
		}
		d.cloudBytes += dynReplicas * (int64(shards[g].Index.SizeBytes()) + ciphertextBytes(shards[g].EncProfiles))
		d.groups = append(d.groups, group)
		dynNodes[g] = group
		if wrap != nil {
			dynNodes[g] = wrap(g, group)
		}
	}
	if d.serving, err = sf.NewDynServing(shards, dynNodes, nil, frontend.DefaultServingConfig()); err != nil {
		d.close()
		return nil, 0, err
	}
	d.subsm = d.serving.AttachSubscriptions(func(subs.Notification) { d.notifications++ })
	for i := 0; i < nSubs; i++ {
		if _, err := d.serving.Subscribe(uploads[i].ID, uploads[i].Profile, topK); err != nil {
			d.close()
			return nil, 0, fmt.Errorf("subscribe %d: %w", uploads[i].ID, err)
		}
	}
	return d, time.Since(start), nil
}

// bootRepeated boots a deployment reps times, closing all but the last,
// and returns the last one with the median set-up time. Set-up is by far
// the noisiest thing a run measures (the first boot also grows the heap),
// so one sample per run would not be steady enough to bound.
func bootRepeated[D interface{ close() }](reps int, boot func() (D, time.Duration, error)) (D, float64, error) {
	var last D
	var secs []float64
	for i := 0; i < reps; i++ {
		d, took, err := boot()
		if err != nil {
			return last, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, took.Seconds())
		if i < reps-1 {
			d.close()
			// Collect the discarded deployment now, so the next boot and
			// the resident-set peak do not depend on when the collector
			// would have got to it.
			runtime.GC()
		}
		last = d
	}
	return last, median(secs), nil
}
