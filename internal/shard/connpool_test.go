package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/faultnet"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/transport"
)

// startServer runs a transport server over an (optionally installed)
// cloud and returns its address.
func startServer(t *testing.T, cs *cloud.Server) string {
	t.Helper()
	srv := transport.NewServer(cs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return addr
}

// TestRemoteConnPoolDispatch pins the pool's dispatch policy: lazy dials
// up to the configured size while live connections are busy, idle
// connections reused before any new dial, least-loaded connection chosen
// once the pool is full.
func TestRemoteConnPoolDispatch(t *testing.T) {
	addr := startServer(t, cloud.New())
	r := NewRemote(addr)
	defer r.Close()
	r.SetConns(3)
	if got := r.Conns(); got != 3 {
		t.Fatalf("Conns() = %d, want 3", got)
	}

	s1, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire 1: %v", err)
	}
	if live := r.LiveConns(); live != 1 {
		t.Fatalf("after first acquire: %d live conns, want 1", live)
	}
	// s1 is busy, so the next call must open a second connection rather
	// than pile onto the same frame stream.
	s2, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire 2: %v", err)
	}
	if s2 == s1 {
		t.Fatal("second concurrent call dispatched onto the busy connection")
	}
	s3, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire 3: %v", err)
	}
	if s3 == s1 || s3 == s2 {
		t.Fatal("third concurrent call did not open the third connection")
	}
	if live := r.LiveConns(); live != 3 {
		t.Fatalf("pool not fully dialed: %d live conns, want 3", live)
	}

	// Pool exhausted: the least-loaded connection takes the overflow.
	s2.inflight.Add(-1) // release s2
	s4, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire 4: %v", err)
	}
	if s4 != s2 {
		t.Fatal("overflow call not dispatched to the least-loaded connection")
	}
	s1.inflight.Add(-1)
	s3.inflight.Add(-1)
	s4.inflight.Add(-1)

	// An idle live connection is preferred over dialing into a freed slot.
	r.SetConns(1)
	if live := r.LiveConns(); live != 1 {
		t.Fatalf("after shrink: %d live conns, want 1", live)
	}
	r.SetConns(2)
	s5, err := r.acquire()
	if err != nil {
		t.Fatalf("acquire after regrow: %v", err)
	}
	if live := r.LiveConns(); live != 1 {
		t.Fatalf("idle connection not reused: %d live conns, want 1", live)
	}
	s5.inflight.Add(-1)
}

// TestRemotePooledConnFaultNoPartial is the regression for the partial
// flag under pooled-connection faults: killing ONE pooled connection —
// not the shard — mid-traffic must not degrade the fan-out to a partial
// result, on the SecRec and the SecRecBatch path alike. The failing call
// drops only its own connection, the pool's bounded retry lands on the
// surviving one, and the shard answers in full.
func TestRemotePooledConnFaultNoPartial(t *testing.T) {
	const n, k = 200, 5
	f := testFrontend(t, "connpool-fault")
	uploads, ds := testUploads(t, f, n)
	shards, err := f.BuildShardedIndex(uploads, 1, nil)
	if err != nil {
		t.Fatalf("BuildShardedIndex: %v", err)
	}

	fn := faultnet.New(faultnet.Plan{Seed: 42})
	fn.SetEnabled(false) // only scripted faults
	addr := startServer(t, cloud.New())
	// Reach the server through the fault-injecting dialer with a
	// two-connection pool.
	remote := NewRemoteDialer(addr, fn.Dialer("shard0"))
	defer remote.Close()
	remote.SetConns(2)

	pool, err := NewPool(DefaultConfig(), remote)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if err := pool.InstallShard(0, shards[0].Index, shards[0].EncProfiles); err != nil {
		t.Fatalf("InstallShard: %v", err)
	}

	// Prime both pooled connections so the fault hits a live pool.
	c1, err := remote.acquire()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := remote.acquire()
	if err != nil {
		t.Fatal(err)
	}
	c1.inflight.Add(-1)
	c2.inflight.Add(-1)
	if live := remote.LiveConns(); live != 2 {
		t.Fatalf("primed %d conns, want 2", live)
	}

	queries, _ := ds.Queries(3, 7)
	tds := make([]*core.Trapdoor, len(queries))
	for i, q := range queries {
		td, err := f.Trapdoor(q)
		if err != nil {
			t.Fatal(err)
		}
		tds[i] = td
	}

	// Healthy baselines.
	wantIDs, wantProfiles, partial, err := pool.SecRec(context.Background(), tds[0])
	if err != nil || partial {
		t.Fatalf("healthy SecRec: partial=%v err=%v", partial, err)
	}
	wantBatchIDs, wantBatchProfiles, partial, err := pool.SecRecBatch(context.Background(), tds)
	if err != nil || partial {
		t.Fatalf("healthy SecRecBatch: partial=%v err=%v", partial, err)
	}

	// Kill one pooled connection under a single-query fan-out.
	fn.FailNextWrites("shard0", 1)
	ids, profiles, partial, err := pool.SecRec(context.Background(), tds[0])
	if err != nil {
		t.Fatalf("SecRec with one dead pooled conn: %v", err)
	}
	if partial {
		t.Fatal("SecRec degraded to partial after a single pooled connection died")
	}
	if !reflect.DeepEqual(ids, wantIDs) || !reflect.DeepEqual(profiles, wantProfiles) {
		t.Fatal("SecRec result diverged after pooled connection fault")
	}

	// Same mid-batch: one connection dies under SecRecBatch.
	fn.FailNextWrites("shard0", 1)
	bIDs, bProfiles, partial, err := pool.SecRecBatch(context.Background(), tds)
	if err != nil {
		t.Fatalf("SecRecBatch with one dead pooled conn: %v", err)
	}
	if partial {
		t.Fatal("SecRecBatch degraded to partial after a single pooled connection died")
	}
	if !reflect.DeepEqual(bIDs, wantBatchIDs) || !reflect.DeepEqual(bProfiles, wantBatchProfiles) {
		t.Fatal("SecRecBatch result diverged after pooled connection fault")
	}
}

var _ frontend.FanoutBatchServer = (*Pool)(nil)

// TestRemotePutProfilesSubBatches pins the install path's framing: a
// shard's profiles ship in sub-batches of about putBatchBytes, so no
// single frame (and hence no buffer the server reads a frame into) grows
// with the shard, and every profile still lands.
func TestRemotePutProfilesSubBatches(t *testing.T) {
	const profiles, size = 40, 100 << 10 // 4 MB of ciphertext
	cs := cloud.New()
	r := NewRemote(startServer(t, cs))
	defer r.Close()

	all := make(map[uint64][]byte, profiles)
	for id := uint64(1); id <= profiles; id++ {
		ct := make([]byte, size)
		ct[0] = byte(id)
		all[id] = ct
	}
	frames := transportCounter("transport.frames_out")
	if err := r.PutProfiles(all); err != nil {
		t.Fatal(err)
	}
	want := int64(profiles * size / putBatchBytes)
	if got := transportCounter("transport.frames_out") - frames; got < want || got > want+1 {
		t.Fatalf("%d bytes of profiles shipped in %d frames, want about %d", profiles*size, got, want)
	}
	if got := cs.NumProfiles(); got != profiles {
		t.Fatalf("server holds %d profiles, want %d", got, profiles)
	}
	ids := make([]uint64, 0, profiles)
	for id := range all {
		ids = append(ids, id)
	}
	got, err := r.FetchProfiles(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if !reflect.DeepEqual(got[i], all[id]) {
			t.Fatalf("profile %d corrupted in transit", id)
		}
	}
	// An empty upload is still one call: it is how a dead shard fails at
	// install time.
	frames = transportCounter("transport.frames_out")
	if err := r.PutProfiles(nil); err != nil {
		t.Fatal(err)
	}
	if got := transportCounter("transport.frames_out") - frames; got != 1 {
		t.Fatalf("empty upload sent %d frames, want 1", got)
	}
}

func transportCounter(name string) int64 { return obs.Default.Counter(name).Load() }

// meterConn counts the bytes that actually cross one dialed connection,
// below the transport's own accounting. It forwards a frame's gather list
// to the wrapped connection as one call, as the transport hands it over.
type meterConn struct {
	net.Conn
	sent, recv atomic.Int64
}

func (m *meterConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	m.recv.Add(int64(n))
	return n, err
}

func (m *meterConn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	n, err := m.Conn.(interface {
		WriteBuffers(*net.Buffers) (int64, error)
	}).WriteBuffers(bufs)
	m.sent.Add(n)
	return n, err
}

// TestRemoteTrafficNeverForgets pins Traffic() as a total over every
// connection the node ever dialed: connections retired by a fault, by a
// shrinking SetConns and by Close keep counting, so the figure never goes
// backwards between two reads and ends equal to the bytes that crossed the
// sockets.
func TestRemoteTrafficNeverForgets(t *testing.T) {
	fn := faultnet.New(faultnet.Plan{Seed: 7})
	fn.SetEnabled(false) // only the scripted reset
	cs := cloud.New()
	cs.PutProfile(1, make([]byte, 4096))
	var mu sync.Mutex
	var dialed []*meterConn
	dial := fn.Dialer("shard0")
	r := NewRemoteDialer(startServer(t, cs), func(addr string) (net.Conn, error) {
		raw, err := dial(addr)
		if err != nil {
			return nil, err
		}
		m := &meterConn{Conn: raw}
		mu.Lock()
		dialed = append(dialed, m)
		mu.Unlock()
		return m, nil
	})
	r.SetConns(2)

	var lastSent, lastRecv int64
	check := func(when string) {
		t.Helper()
		sent, recv := r.Traffic()
		if sent < lastSent || recv < lastRecv {
			t.Fatalf("%s: Traffic() went backwards: (%d, %d) after (%d, %d)", when, sent, recv, lastSent, lastRecv)
		}
		lastSent, lastRecv = sent, recv
	}
	// Prime both slots, then keep traffic flowing through every retirement.
	a, err := r.acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.acquire()
	if err != nil {
		t.Fatal(err)
	}
	a.inflight.Add(-1)
	b.inflight.Add(-1)
	for round := 0; round < 12; round++ {
		switch round {
		case 4:
			fn.FailNextWrites("shard0", 1) // a reset mid-run drops one slot
		case 8:
			r.SetConns(1) // shrinking retires another
		}
		_, err := r.FetchProfiles([]uint64{1})
		if (err != nil) != (round == 4) {
			t.Fatalf("round %d: FetchProfiles: %v", round, err)
		}
		check(fmt.Sprintf("round %d", round))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	check("after Close")

	if len(dialed) < 3 {
		t.Fatalf("only %d connections were ever dialed; the run retired none", len(dialed))
	}
	var wantSent, wantRecv int64
	for _, m := range dialed {
		wantSent += m.sent.Load()
		wantRecv += m.recv.Load()
	}
	if lastSent != wantSent || lastRecv != wantRecv {
		t.Fatalf("Traffic() = (%d, %d) over %d connections, the sockets carried (%d, %d)", lastSent, lastRecv, len(dialed), wantSent, wantRecv)
	}
}

// stallConn is a connection whose reader cannot be interrupted: once the
// socket is closed, Read still holds its caller until release is closed —
// what faultnet's StallDelay sleep does to a transport reader.
type stallConn struct {
	net.Conn
	release chan struct{}
}

func (c *stallConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		<-c.release
	}
	return n, err
}

// TestRemoteDropDoesNotStallThePool pins drop's lock discipline: closing
// the dropped connection waits for its reader, and while that reader is
// stuck the rest of the pool keeps dispatching, counting and reporting —
// with Traffic() still never going backwards, before, during or after.
func TestRemoteDropDoesNotStallThePool(t *testing.T) {
	cs := cloud.New()
	cs.PutProfile(1, make([]byte, 4096))
	addr := startServer(t, cs)
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	t.Cleanup(free) // a failed run must not leave readers held through the server's shutdown
	r := NewRemoteDialer(addr, func(addr string) (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &stallConn{Conn: raw, release: release}, nil
	})
	r.SetConns(2)
	a, err := r.acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.acquire()
	if err != nil {
		t.Fatal(err)
	}
	a.inflight.Add(-1)
	b.inflight.Add(-1)
	for _, s := range []*remoteConn{a, b} {
		if err := s.c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	sent0, recv0 := r.Traffic()

	prompt := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s is stuck behind a connection that is still closing", what)
		}
	}
	dropped := make(chan struct{})
	go func() { r.drop(a); close(dropped) }()
	for live := 2; live != 1; {
		prompt("LiveConns", func() { live = r.LiveConns() })
	}
	select {
	case <-dropped:
		t.Fatal("drop returned while its connection's reader was still held")
	default:
	}
	prompt("a call on the other slot", func() {
		if _, err := r.FetchProfiles([]uint64{1}); err != nil {
			t.Errorf("FetchProfiles beside a closing connection: %v", err)
		}
	})
	if got := r.LiveConns(); got != 1 {
		t.Fatalf("%d live connections beside a closing one, want the call to have reused the live slot", got)
	}
	var sent1, recv1 int64
	prompt("Traffic", func() { sent1, recv1 = r.Traffic() })
	aTx, aRx := a.c.Traffic()
	bTx, bRx := b.c.Traffic()
	if sent1 <= sent0 || recv1 <= recv0 || sent1 != aTx+bTx || recv1 != aRx+bRx {
		t.Fatalf("Traffic() = (%d, %d) mid-drop after (%d, %d), want both connections' (%d, %d)", sent1, recv1, sent0, recv0, aTx+bTx, aRx+bRx)
	}

	free()
	<-dropped
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	sent2, recv2 := r.Traffic()
	aTx, aRx = a.c.Traffic()
	bTx, bRx = b.c.Traffic()
	if sent2 < sent1 || recv2 < recv1 || sent2 != aTx+bTx || recv2 != aRx+bRx {
		t.Fatalf("Traffic() = (%d, %d) at the end, after (%d, %d); the two connections carried (%d, %d)", sent2, recv2, sent1, recv1, aTx+bTx, aRx+bRx)
	}
}

// flipConn corrupts one byte of the next read once armed.
type flipConn struct {
	net.Conn
	armed *atomic.Bool
}

func (f *flipConn) Read(p []byte) (int, error) {
	n, err := f.Conn.Read(p)
	if n > 0 && f.armed.CompareAndSwap(true, false) {
		p[n-1] ^= 0x40
	}
	return n, err
}

// TestBadFramingDropsOnlyThatConn is the connection-level failure class at
// the pool: a response frame that fails its checksum costs the call a
// ConnError wrapping transport.ErrChecksum and the node that one pooled
// connection; the other slot serves the very next call.
func TestBadFramingDropsOnlyThatConn(t *testing.T) {
	var armed atomic.Bool
	r := NewRemoteDialer(startServer(t, cloud.New()), func(addr string) (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &flipConn{Conn: raw, armed: &armed}, nil
	})
	defer r.Close()
	r.SetConns(2)
	a, err := r.acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.acquire()
	if err != nil {
		t.Fatal(err)
	}
	a.inflight.Add(-1)
	b.inflight.Add(-1)

	ctx := context.Background()
	if err := r.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	err = r.Ping(ctx)
	if !errors.Is(err, transport.ErrChecksum) || !transport.IsConnError(err) {
		t.Fatalf("corrupted response failed with %v, want a ConnError wrapping ErrChecksum", err)
	}
	if live := r.LiveConns(); live != 1 {
		t.Fatalf("%d live connections after one framing fault, want 1", live)
	}
	if err := r.Ping(ctx); err != nil {
		t.Fatalf("ping on the surviving slot: %v", err)
	}
	if live := r.LiveConns(); live != 1 {
		t.Fatalf("the surviving slot did not serve the call: %d live connections", live)
	}
}
