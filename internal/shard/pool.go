package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pisd/internal/core"
	"pisd/internal/obs"
	"pisd/internal/transport"
)

// Config tunes a Pool's fan-out behaviour.
type Config struct {
	// Timeout bounds each per-shard call attempt; zero means only the
	// caller's context bounds the call.
	Timeout time.Duration
	// Retries is how many additional attempts a shard gets after a
	// retryable failure (connection-level error or per-attempt timeout).
	// Application errors are never retried.
	Retries int
	// Owner maps a user identifier to its shard index; nil means
	// core.DefaultOwner (id mod shard count). It must match the owner
	// function the partitioned index was built with.
	Owner func(uint64) int
	// OnShardError, when non-nil, observes every shard failure the pool
	// tolerates or reports (shard index and final error after retries).
	OnShardError func(shard int, err error)
}

// DefaultConfig returns the pool defaults: a 5 s per-shard deadline and
// one retry.
func DefaultConfig() Config {
	return Config{Timeout: 5 * time.Second, Retries: 1}
}

// Pool fans discovery requests out across cloud shards and merges their
// encrypted matches. It is safe for concurrent use.
type Pool struct {
	cfg   Config
	nodes []Node
	met   *poolMetrics
}

// NewPool assembles a pool over the given shard nodes. The node order is
// the shard numbering: nodes[s] must host the index built for shard s.
func NewPool(cfg Config, nodes ...Node) (*Pool, error) {
	if len(nodes) == 0 {
		return nil, errors.New("shard: pool needs at least one node")
	}
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("shard: node %d is nil", i)
		}
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("shard: retries must be >= 0, got %d", cfg.Retries)
	}
	if cfg.Owner == nil {
		cfg.Owner = core.DefaultOwner(len(nodes))
	}
	return &Pool{cfg: cfg, nodes: nodes, met: newPoolMetrics(obs.Default, len(nodes))}, nil
}

// Len returns the shard count.
func (p *Pool) Len() int { return len(p.nodes) }

// Node returns shard s's node; with Owner it routes per-user operations
// (profile upload/delete, dynamic insert/delete) to the owning shard.
func (p *Pool) Node(s int) Node { return p.nodes[s] }

// Owner returns the shard that owns identifier id.
func (p *Pool) Owner(id uint64) int { return p.cfg.Owner(id) }

// OwnerNode returns the node hosting identifier id.
func (p *Pool) OwnerNode(id uint64) Node { return p.nodes[p.cfg.Owner(id)] }

// SecRecBatch fans a batch of trapdoors out to every shard concurrently,
// ONE call per shard, and merges the recovered identifiers and encrypted
// profiles per query in shard order: result q depends on ts[q] and the set
// of healthy shards alone, so a discovery is a batch of one. A shard that
// fails after the configured retries is skipped for the whole batch and
// the result is flagged partial; only when every shard fails does
// SecRecBatch return an error. The signature implements
// frontend.FanoutBatchServer.
func (p *Pool) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) (ids [][]uint64, encProfiles [][][]byte, partial bool, err error) {
	if len(ts) == 0 {
		return nil, nil, false, nil
	}
	start := time.Now()
	results, errs := fanout(p, ctx, ts)

	var firstErr error
	failed := 0
	for s := range p.nodes {
		if errs[s] != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", s, errs[s])
			}
		}
	}
	if failed == len(p.nodes) {
		return nil, nil, false, fmt.Errorf("shard: all %d shards failed: %w", len(p.nodes), firstErr)
	}
	ids = make([][]uint64, len(ts))
	encProfiles = make([][][]byte, len(ts))
	for q := range ts {
		seen := make(map[uint64]struct{})
		for s, r := range results {
			if errs[s] != nil {
				continue
			}
			for i, id := range r.ids[q] {
				// Shards are disjoint by construction; the dedup guard keeps
				// SecRec's no-duplicates contract even over a misconfigured
				// (overlapping) deployment.
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
				ids[q] = append(ids[q], id)
				encProfiles[q] = append(encProfiles[q], r.profiles[q][i])
			}
		}
	}
	p.met.fanout(start, failed > 0)
	return ids, encProfiles, failed > 0, nil
}

// SecRec is SecRecBatch for one trapdoor.
func (p *Pool) SecRec(ctx context.Context, t *core.Trapdoor) (ids []uint64, encProfiles [][]byte, partial bool, err error) {
	batchIDs, batchProfiles, partial, err := p.SecRecBatch(ctx, []*core.Trapdoor{t})
	if err != nil {
		return nil, nil, false, err
	}
	return batchIDs[0], batchProfiles[0], partial, nil
}

// batchLeg is one shard's answer to a SecRecBatch fan-out.
type batchLeg struct {
	ids      [][]uint64
	profiles [][][]byte
}

// fanout runs one retried SecRecBatch call per shard concurrently and
// collects each shard's answer or final error. Shard failures are reported
// to OnShardError here, once per fan-out.
func fanout(p *Pool, ctx context.Context, ts []*core.Trapdoor) ([]batchLeg, []error) {
	results := make([]batchLeg, len(p.nodes))
	errs := make([]error, len(p.nodes))
	var wg sync.WaitGroup
	for s := range p.nodes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			start := time.Now()
			results[s], errs[s] = attempt(p, ctx, s, func(cctx context.Context) (batchLeg, error) {
				ids, profiles, err := p.nodes[s].SecRecBatch(cctx, ts)
				if err == nil && (len(ids) != len(ts) || len(profiles) != len(ts)) {
					err = fmt.Errorf("shard: batch of %d queries answered with %d results", len(ts), len(ids))
				}
				return batchLeg{ids: ids, profiles: profiles}, err
			})
			if errs[s] == nil {
				p.met.leg(s).ObserveSince(start)
			} else {
				p.met.failure(s)
			}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil && p.cfg.OnShardError != nil {
			p.cfg.OnShardError(s, err)
		}
	}
	return results, errs
}

// attempt runs shard s's call with the pool's per-attempt deadline and
// bounded retry. Only connection-level faults and per-attempt timeouts are
// retried; a cancelled parent context or an application error ends the
// attempts immediately.
//
// Only the FINAL error is returned: a retryable ConnError on an early try
// followed by an application error on the next is reported as the
// application error alone. That is the right error to act on, but it
// makes the preceding connection fault invisible to callers — the
// per-shard attempts/retries/timeouts counters exist precisely so those
// swallowed intermediate faults stay visible in aggregate
// (TestAttemptAccountsSwallowedConnError pins this down).
func attempt(p *Pool, ctx context.Context, s int, call func(context.Context) (batchLeg, error)) (batchLeg, error) {
	var lastErr error
	for try := 0; try <= p.cfg.Retries; try++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		p.met.attempt(s, try)
		cctx, cancel := p.attemptCtx(ctx)
		r, err := call(cctx)
		cancel()
		if err == nil {
			return r, nil
		}
		lastErr = err
		if errors.Is(err, context.DeadlineExceeded) {
			p.met.timeout(s)
		}
		if !retryable(err) {
			break
		}
	}
	return batchLeg{}, lastErr
}

// attemptCtx derives the per-attempt context.
func (p *Pool) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if p.cfg.Timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, p.cfg.Timeout)
}

// retryable classifies a shard failure: connection-level transport faults
// and attempt deadline expiries may succeed on a fresh connection;
// application errors (e.g. "no index installed") will not.
func retryable(err error) bool {
	return transport.IsConnError(err) || errors.Is(err, context.DeadlineExceeded)
}

// Ping probes every shard concurrently and returns one liveness result per
// shard (nil = healthy). Pings are not retried: the caller is asking about
// the shard's state right now.
func (p *Pool) Ping(ctx context.Context) []error {
	errs := make([]error, len(p.nodes))
	var wg sync.WaitGroup
	for s := range p.nodes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cctx, cancel := p.attemptCtx(ctx)
			defer cancel()
			errs[s] = p.nodes[s].Ping(cctx)
		}(s)
	}
	wg.Wait()
	return errs
}

// InstallShard installs shard s's partitioned index and encrypted
// profiles on its node.
func (p *Pool) InstallShard(s int, idx *core.Index, encProfiles map[uint64][]byte) error {
	if s < 0 || s >= len(p.nodes) {
		return fmt.Errorf("shard: shard %d out of range [0,%d)", s, len(p.nodes))
	}
	if err := p.nodes[s].InstallIndex(idx); err != nil {
		return fmt.Errorf("shard %d: install index: %w", s, err)
	}
	if err := p.nodes[s].PutProfiles(encProfiles); err != nil {
		return fmt.Errorf("shard %d: put profiles: %w", s, err)
	}
	return nil
}

// InstallDynShard installs shard s's dynamic index and encrypted profiles
// on its node.
func (p *Pool) InstallDynShard(s int, idx *core.DynIndex, encProfiles map[uint64][]byte) error {
	if s < 0 || s >= len(p.nodes) {
		return fmt.Errorf("shard: shard %d out of range [0,%d)", s, len(p.nodes))
	}
	if err := p.nodes[s].InstallDynIndex(idx); err != nil {
		return fmt.Errorf("shard %d: install dynamic index: %w", s, err)
	}
	if err := p.nodes[s].PutProfiles(encProfiles); err != nil {
		return fmt.Errorf("shard %d: put profiles: %w", s, err)
	}
	return nil
}
