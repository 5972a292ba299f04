package shard

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/obs"
	"pisd/internal/transport"
)

// flakyNode fails its first SecRecBatch with a retryable connection error and
// every later one with a non-retryable application error: the exact
// sequence in which attempt() swallows the intermediate ConnError.
type flakyNode struct {
	Node
	mu    sync.Mutex
	calls int
}

func (n *flakyNode) SecRecBatch(context.Context, []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.calls++
	if n.calls == 1 {
		return nil, nil, &transport.ConnError{Op: "receive", Err: errors.New("connection reset")}
	}
	return nil, nil, &transport.RemoteError{Msg: "no index installed"}
}

// TestAttemptAccountsSwallowedConnError pins the retry-loop error
// semantics documented on attempt(): when a retryable connection fault is
// followed by an application error on the retry, only the FINAL
// application error is surfaced (to the caller and to OnShardError) — the
// intermediate ConnError is swallowed from the error path, and the only
// place it remains visible is the per-shard attempts/retries counters.
func TestAttemptAccountsSwallowedConnError(t *testing.T) {
	flaky := &flakyNode{Node: NewLocal(cloud.New())}
	cfg := DefaultConfig()
	cfg.Retries = 2
	var reported []error
	var mu sync.Mutex
	cfg.OnShardError = func(s int, err error) {
		mu.Lock()
		reported = append(reported, err)
		mu.Unlock()
	}
	pool, err := NewPool(cfg, flaky)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool.SetRegistry(reg)

	_, _, _, err = pool.SecRec(context.Background(), nil)
	if err == nil {
		t.Fatal("expected the single-shard fan-out to fail")
	}
	// The surfaced error is the application error; the preceding ConnError
	// has been swallowed from the error chain entirely.
	var remote *transport.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("surfaced error is %v, want the final RemoteError", err)
	}
	if transport.IsConnError(err) {
		t.Fatalf("surfaced error still carries the intermediate ConnError: %v", err)
	}

	// The node was called twice (initial try + one retry); the app error
	// stopped the remaining retry budget.
	flaky.mu.Lock()
	calls := flaky.calls
	flaky.mu.Unlock()
	if calls != 2 {
		t.Fatalf("node called %d times, want 2 (conn fault, then app error)", calls)
	}

	// OnShardError observed exactly one (final) error.
	mu.Lock()
	defer mu.Unlock()
	if len(reported) != 1 {
		t.Fatalf("OnShardError called %d times, want 1", len(reported))
	}
	if !errors.As(reported[0], &remote) {
		t.Fatalf("OnShardError got %v, want the final RemoteError", reported[0])
	}

	// The swallowed fault stays visible in the counters: two attempts, of
	// which one was a retry, and one terminal failure.
	c := reg.Snapshot().Counters
	if got := c["shard.0.attempts"]; got != 2 {
		t.Errorf("shard.0.attempts = %d, want 2", got)
	}
	if got := c["shard.0.retries"]; got != 1 {
		t.Errorf("shard.0.retries = %d, want 1 (the swallowed ConnError's trace)", got)
	}
	if got := c["shard.0.failures"]; got != 1 {
		t.Errorf("shard.0.failures = %d, want 1", got)
	}
	if got := c["shard.0.timeouts"]; got != 0 {
		t.Errorf("shard.0.timeouts = %d, want 0", got)
	}
}

// stallNode blocks every SecRecBatch until the per-attempt context expires.
type stallNode struct {
	Node
}

func (n stallNode) SecRecBatch(ctx context.Context, _ []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	<-ctx.Done()
	return nil, nil, &transport.ConnError{Op: "call", Err: ctx.Err()}
}

// TestAttemptTimeoutCounted checks the timeout leg of the same accounting:
// per-attempt deadline expiries are retryable, so a stalled shard burns
// the whole retry budget and every expiry lands in shard.<i>.timeouts.
func TestAttemptTimeoutCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timeout = 20 * time.Millisecond
	cfg.Retries = 1
	pool, err := NewPool(cfg, stallNode{Node: NewLocal(cloud.New())})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool.SetRegistry(reg)

	_, _, _, err = pool.SecRec(context.Background(), nil)
	if err == nil {
		t.Fatal("expected the stalled fan-out to fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline expiry", err)
	}
	c := reg.Snapshot().Counters
	if got := c["shard.0.attempts"]; got != 2 {
		t.Errorf("shard.0.attempts = %d, want 2", got)
	}
	if got := c["shard.0.timeouts"]; got != 2 {
		t.Errorf("shard.0.timeouts = %d, want 2 (every attempt expired)", got)
	}
	if got := c["shard.0.failures"]; got != 1 {
		t.Errorf("shard.0.failures = %d, want 1", got)
	}
}

// connErrNode fails every read with the given retryable connection fault,
// without any backing server being involved.
type connErrNode struct {
	ReplicaNode
	err error
}

func (n connErrNode) SecRecBatch(context.Context, []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	return nil, nil, n.err
}

// okNode answers every read successfully with an empty result.
type okNode struct{ ReplicaNode }

func (okNode) SecRecBatch(context.Context, []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	return nil, nil, nil
}

// TestGroupAttemptAccountsSwallowedConnError is the replica-group analogue
// of TestAttemptAccountsSwallowedConnError: a failover that succeeds on a
// sibling swallows the first replica's connection fault from the error
// path entirely — the caller sees a clean success — so the accounting gap
// would be invisible without per-replica counters. The attempt must be
// charged to the replica actually tried, BEFORE the call, and the
// swallowed fault must surface as replica.<g>.<r>.attempts plus one
// fleet-wide failover.
func TestGroupAttemptAccountsSwallowedConnError(t *testing.T) {
	dead := connErrNode{
		ReplicaNode: NewLocal(cloud.New()),
		err:         &transport.ConnError{Op: "receive", Err: errors.New("connection reset")},
	}
	ok := okNode{ReplicaNode: NewLocal(cloud.New())}
	g, err := NewReplicaGroup(0, GroupConfig{}, dead, ok)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.SetRegistry(reg)

	// Replica 0 is the first candidate (equal scores, stable order), so the
	// read provably walks dead → ok.
	if _, _, err := g.SecRecBatch(context.Background(), nil); err != nil {
		t.Fatalf("failover read surfaced the swallowed fault: %v", err)
	}

	c := reg.Snapshot().Counters
	if got := c["replica.0.0.attempts"]; got != 1 {
		t.Errorf("replica.0.0.attempts = %d, want 1 (the faulted replica was tried)", got)
	}
	if got := c["replica.0.1.attempts"]; got != 1 {
		t.Errorf("replica.0.1.attempts = %d, want 1", got)
	}
	if got := c["replica.failovers"]; got != 1 {
		t.Errorf("replica.failovers = %d, want 1", got)
	}
	if got := c["replica.0.0.timeouts"]; got != 0 {
		t.Errorf("replica.0.0.timeouts = %d, want 0", got)
	}

	// A second read prefers the sibling (the faulted replica now carries a
	// read-fault score) and must not charge the dead replica again.
	if _, _, err := g.SecRecBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	c = reg.Snapshot().Counters
	if got := c["replica.0.0.attempts"]; got != 1 {
		t.Errorf("after recovery read: replica.0.0.attempts = %d, want still 1", got)
	}
	if got := c["replica.0.1.attempts"]; got != 2 {
		t.Errorf("after recovery read: replica.0.1.attempts = %d, want 2", got)
	}
	if got := c["replica.failovers"]; got != 1 {
		t.Errorf("after recovery read: replica.failovers = %d, want still 1", got)
	}
}

// TestGroupAttemptTimeoutCounted pins the timeout leg of group accounting:
// a per-attempt deadline expiry on the tried replica lands in that
// replica's timeouts counter even though the failover swallows the error.
func TestGroupAttemptTimeoutCounted(t *testing.T) {
	stalled := connErrNode{
		ReplicaNode: NewLocal(cloud.New()),
		err:         &transport.ConnError{Op: "call", Err: context.DeadlineExceeded},
	}
	ok := okNode{ReplicaNode: NewLocal(cloud.New())}
	g, err := NewReplicaGroup(3, GroupConfig{}, stalled, ok)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.SetRegistry(reg)

	if _, _, err := g.SecRecBatch(context.Background(), nil); err != nil {
		t.Fatalf("failover read failed: %v", err)
	}
	c := reg.Snapshot().Counters
	if got := c["replica.3.0.attempts"]; got != 1 {
		t.Errorf("replica.3.0.attempts = %d, want 1", got)
	}
	if got := c["replica.3.0.timeouts"]; got != 1 {
		t.Errorf("replica.3.0.timeouts = %d, want 1 (the expiry the failover swallowed)", got)
	}
	if got := c["replica.3.1.timeouts"]; got != 0 {
		t.Errorf("replica.3.1.timeouts = %d, want 0", got)
	}
	if got := c["replica.failovers"]; got != 1 {
		t.Errorf("replica.failovers = %d, want 1", got)
	}
}

// TestGroupAllReplicasFailAccounting checks the exhausted case: every
// current replica is tried exactly once, the failover counter only counts
// moves that had somewhere to go (N-1 for N candidates), and the surfaced
// error wraps the last connection fault so callers can classify it.
func TestGroupAllReplicasFailAccounting(t *testing.T) {
	mk := func() connErrNode {
		return connErrNode{
			ReplicaNode: NewLocal(cloud.New()),
			err:         &transport.ConnError{Op: "receive", Err: errors.New("connection reset")},
		}
	}
	g, err := NewReplicaGroup(1, GroupConfig{}, mk(), mk(), mk())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g.SetRegistry(reg)

	_, _, err = g.SecRecBatch(context.Background(), nil)
	if err == nil {
		t.Fatal("expected the all-dead group to fail")
	}
	if !transport.IsConnError(err) {
		t.Fatalf("surfaced error %v does not classify as a connection fault", err)
	}
	c := reg.Snapshot().Counters
	for r := 0; r < 3; r++ {
		name := "replica.1." + strconv.Itoa(r) + ".attempts"
		if got := c[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	if got := c["replica.failovers"]; got != 2 {
		t.Errorf("replica.failovers = %d, want 2 (the third failure had no sibling left)", got)
	}
}
