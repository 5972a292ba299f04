// Package transport puts the paper's three-entity architecture on a real
// network: a framed, request-ID-multiplexed protocol over TCP exposing the
// cloud server's surface (SecRec discovery, encrypted profile and image
// storage, dynamic bucket fetch/store) to remote front ends and user
// clients.
//
// Wire format: every message is one self-delimiting binary frame (wire.go)
// carrying a connection-unique request ID and, on a request, the caller's
// remaining deadline budget. Each direction of a connection is owned by a
// single reader goroutine and a write lock. Because responses are
// dispatched by ID, many callers can pipeline requests on one connection
// concurrently: the client writes frames as callers arrive and its reader
// goroutine routes each response to the caller that requested it, in
// whatever order the server finishes them. The server, symmetrically,
// reads frames as they arrive and executes each request on a bounded
// per-connection worker pool instead of one-at-a-time, so a single
// connection saturates the hardware rather than sustaining at most one
// request per round trip.
//
// Ciphertexts are never copied into a message on their way through. The
// server writes an answer as a small header followed by the profile
// store's own slices, one writev per frame; the client reads a frame into
// one buffer and hands its ciphertexts out as sub-slices of it (ownership
// rule: whoever retains one beyond the call copies it).
//
// The interesting security properties (constant bandwidth per discovery,
// one round per operation) are those of the scheme, not of the wire format.
// Frame sizes are exposed so the bandwidth experiments measure real
// serialized traffic.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
)

// ConnError marks a connection-level failure: a failed dial, a dead or
// half-closed connection, a corrupt frame, or a timed-out / cancelled call.
// Callers distinguishing transient transport faults from application errors
// — e.g. a shard pool deciding whether to retry — should test with
// IsConnError. A timed-out or cancelled call does NOT invalidate the
// connection: the multiplexed stream skips the late response by its request
// ID, so other in-flight and future calls proceed undisturbed.
type ConnError struct {
	// Op is the failing step: "dial", "call", "send" or "receive".
	Op string
	// Err is the underlying network, codec or context error.
	Err error
}

func (e *ConnError) Error() string { return fmt.Sprintf("transport: %s: %v", e.Op, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As (net.Error,
// context.DeadlineExceeded, io.ErrUnexpectedEOF, ...).
func (e *ConnError) Unwrap() error { return e.Err }

// IsConnError reports whether err stems from the connection rather than
// from the remote application logic. Connection errors are retryable;
// application errors (RemoteError) are not.
func IsConnError(err error) bool {
	var ce *ConnError
	return errors.As(err, &ce)
}

// RemoteError is an error the server's application logic reported inside a
// well-formed response frame (e.g. "cloud: no index installed"). The
// connection remains healthy after a RemoteError.
type RemoteError struct {
	// Msg is the server-side error string.
	Msg string
}

func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// Server serves a cloud.Server over TCP.
type Server struct {
	cs      *cloud.Server
	workers int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer wraps a cloud server. Each connection executes its pipelined
// requests on a bounded worker pool sized max(4, GOMAXPROCS); tune with
// SetWorkersPerConn before Listen.
func NewServer(cs *cloud.Server) *Server {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	tmet.srvWorkers.Set(int64(workers))
	return &Server{cs: cs, workers: workers, conns: make(map[net.Conn]struct{})}
}

// SetWorkersPerConn bounds how many of one connection's pipelined requests
// execute concurrently (excess requests queue by backpressure: the
// connection's frames stop being read). Call before Listen. The effective
// value is surfaced as the transport.server.workers_per_conn gauge.
func (s *Server) SetWorkersPerConn(n int) {
	if n > 0 {
		s.workers = n
		tmet.srvWorkers.Set(int64(n))
	}
}

// Listen binds the given address ("127.0.0.1:0" for an ephemeral port) and
// starts accepting connections until Shutdown. It returns the bound
// address immediately; serving continues in background goroutines owned by
// the server.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	if err := s.Serve(ln); err != nil {
		return "", err
	}
	return ln.Addr().String(), nil
}

// Serve starts accepting connections from an already-bound listener until
// Shutdown; the server owns ln from here on and closes it at shutdown.
// Like Listen it returns immediately — serving continues in background
// goroutines. This is the hook fault-injection harnesses use to interpose
// a wrapped listener between the network and the server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("transport: server already shut down")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		tmet.srvConns.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// exchange is the reusable state of one request on a connection: the
// buffer its frame was read into, the decoded request (whose byte strings
// are sub-slices of that buffer — every server-side sink copies what it
// keeps) and the answer under construction.
type exchange struct {
	typ     msgType
	payload []byte
	arrival time.Time // no later than the frame's first bytes came off the socket; see serveConn
	req     message
	resp    message
}

// keepScratch is the largest request buffer a connection holds on to
// between requests. Steady-state requests (a trapdoor, a handful of
// buckets) are a few KB; an upload or index-install frame is read into a
// buffer of its own that dies with the request, so no connection pins a
// shard's worth of ciphertext for its lifetime.
const keepScratch = 256 << 10

// serveConn reads request frames as they arrive and hands each to the
// connection's worker pool; responses are written back in completion
// order, matched to callers by request ID.
//
// Each frame is stamped for the deadline-budget check in answer. With every
// worker busy this loop parks at the semaphore and stops reading, so what
// the budget measures is the wait the server can see: the frame parked
// there, and the frames behind it that the same socket read had already
// pulled into the read-ahead — those inherit the stamp of the read that
// brought them in, not the moment the loop got round to them. A request
// still in the kernel's socket buffer has no stamp until it is read, and
// its wait there is not counted: a request is only ever aged too little,
// never expired early.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		tmet.srvConns.Add(-1)
	}()
	var (
		wg  sync.WaitGroup
		sem = make(chan struct{}, s.workers)
		// scratch recycles exchanges between this connection's requests: at
		// most s.workers are executing while one more is being read.
		scratch = make(chan *exchange, s.workers+1)
		fr      = newFrameReader(conn)
		fw      = &frameWriter{w: conn}
		dead    atomic.Bool
		read    int64
		arrival time.Time
	)
	defer wg.Wait()
	for {
		var ex *exchange
		select {
		case ex = <-scratch:
		default:
			ex = new(exchange)
		}
		var err error
		queued := fr.r.Buffered() > 0 // its first bytes came off the socket with an earlier frame
		if ex.typ, ex.payload, err = fr.next(ex.payload); err != nil {
			return // connection closed, or framing lost: nothing after this can be delimited
		}
		if !queued {
			arrival = time.Now()
		}
		ex.arrival = arrival
		tmet.srvFrames.Inc()
		tmet.srvBytesIn.Add(fr.n - read)
		read = fr.n
		if dead.Load() {
			return
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := s.answer(ex, fw); err != nil {
				dead.Store(true)
				conn.Close()
			}
			if cap(ex.payload) <= keepScratch {
				select {
				case scratch <- ex:
				default:
				}
			}
		}()
	}
}

// answer executes one request and writes its response frame. An error
// means the connection is finished (the write failed); everything else —
// a body that does not parse, an expired budget, an application error, an
// answer too large to frame — is reported to the caller in the response
// and the connection carries on.
func (s *Server) answer(ex *exchange, fw *frameWriter) error {
	req, resp := &ex.req, &ex.resp
	err := decode(ex.typ, ex.payload, req)
	*resp = message{typ: ex.typ | respBit, id: req.id}
	switch {
	case err != nil:
		resp.status, resp.errMsg = statusBadPayload, err.Error()
	case ex.typ&respBit != 0:
		resp.status, resp.errMsg = statusBadPayload, fmt.Sprintf("%v sent as a request", ex.typ)
	case req.budget > 0 && time.Since(ex.arrival) > req.budget:
		// The caller gave up while this request waited for a worker: say
		// so without touching the index. The budget is relative, so no
		// clock is compared across machines.
		resp.status = statusExpired
	default:
		if err := s.dispatch(req, resp); err != nil {
			resp.refuse(err)
		}
	}
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	if err := fb.encode(resp); err != nil {
		resp.refuse(err)
		if err := fb.encode(resp); err != nil {
			return err
		}
	}
	// The frame references the profile store's slices directly, after
	// SecRecBatch/FetchProfiles dropped the read lock. That is safe because
	// the store never mutates a stored slice: PutProfile installs a fresh
	// copy and DeleteProfile only unlinks (TestWireAnswersRaceProfileStore).
	err = fw.write(fb)
	*resp = message{}
	return err
}

// refuse turns a response into the application-error answer for err.
func (m *message) refuse(err error) {
	*m = message{typ: m.typ, id: m.id, status: statusRemote, errMsg: err.Error()}
}

// handlerPanic opens the refusal text of a request whose handler
// panicked. The fuzz target fails on any answer carrying it, so the
// recover below never hides a handler bug from it.
const handlerPanic = "transport: handler panic: "

// dispatch executes one request against the cloud server, filling resp's
// body; an error is the application's refusal. A panicking handler fails
// only its own request: the connection, and every other request on the
// server, carries on.
func (s *Server) dispatch(req, resp *message) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s%v", handlerPanic, r)
		}
	}()
	switch req.typ {
	case msgPing:
	case msgInstallIndex:
		idx := new(core.Index)
		if err = idx.UnmarshalBinary(req.blobs[0]); err == nil {
			s.cs.SetIndex(idx)
		}
	case msgInstallDynIndex:
		idx := new(core.DynIndex)
		if err = idx.UnmarshalBinary(req.blobs[0]); err == nil {
			s.cs.SetDynIndex(idx)
		}
	case msgSecRecBatch:
		// The server owns this request's lifetime from here: a caller that
		// gives up now simply never reads the response.
		resp.batchIDs, resp.batchBlobs, err = s.cs.SecRecBatch(context.Background(), req.trapdoors)
	case msgFetchProfiles:
		resp.blobs, err = s.cs.FetchProfiles(req.ids)
	case msgPutProfiles:
		for i, id := range req.ids {
			s.cs.PutProfile(id, req.blobs[i])
		}
	case msgDeleteProfile:
		s.cs.DeleteProfile(req.user)
	case msgFetchBuckets:
		resp.buckets, err = s.cs.FetchBuckets(req.refs)
	case msgStoreBuckets:
		// A non-zero version selects the versioned store: buckets and
		// version applied atomically.
		if req.version > 0 {
			err = s.cs.StoreBucketsVersioned(req.refs, req.buckets, req.version)
		} else {
			err = s.cs.StoreBuckets(req.refs, req.buckets)
		}
	case msgVersion:
		resp.version = s.cs.Version()
	case msgSetVersion:
		s.cs.ApplyVersion(req.version)
	case msgProfileIDs:
		resp.ids = s.cs.ProfileIDs()
	case msgStoreImage:
		s.cs.StoreImages(req.user, req.blobs[0])
	case msgFetchImages:
		resp.blobs = s.cs.Images(req.user)
	}
	return err
}

// Shutdown stops accepting, closes every connection and waits for all
// serving goroutines to exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("transport: shutdown: %w", ctx.Err())
	}
}

// Client is a remote handle to a cloud server. It is safe for concurrent
// use and pipelines: any number of callers share the one connection, each
// call writes its frame immediately and waits only for its own response,
// dispatched by request ID from a single reader goroutine.
type Client struct {
	conn net.Conn
	fw   *frameWriter  // the connection's outbound half; counts sent bytes
	done chan struct{} // closed when readLoop has exited

	mu      sync.Mutex
	pending map[uint64]chan inbound
	nextID  uint64
	timeout time.Duration
	broken  error // set once the connection is unusable; sticky

	// recvBytes accumulates exact framed inbound traffic for the bandwidth
	// experiments (the outbound half is fw.total).
	recvBytes atomic.Int64
}

// inbound is a response frame on its way from the reader goroutine to the
// caller that decodes it. payload is the frame's own buffer: everything
// the call returns is cut from it, and it dies with the caller's result.
type inbound struct {
	typ     msgType
	payload []byte
}

// Compile-time checks: the client presents the same surfaces as the
// in-process cloud server.
var _ core.BucketStore = (*Client)(nil)

// Dial connects to a transport server. A failed dial returns a ConnError.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, nil)
}

// Dialer opens the raw connection a client multiplexes its calls over.
// It exists so tests can interpose fault-injecting wrappers between the
// client and the network; nil means plain net.Dial("tcp", addr).
type Dialer func(addr string) (net.Conn, error)

// DialWith is Dial with an injectable connection factory. Errors from the
// dialer are wrapped as ConnErrors so pool retry logic treats a failed
// dial like any other connection-level fault.
func DialWith(addr string, dial Dialer) (*Client, error) {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	tmet.dials.Inc()
	conn, err := dial(addr)
	if err != nil {
		tmet.dialErrors.Inc()
		return nil, &ConnError{Op: "dial", Err: err}
	}
	c := &Client{conn: conn, fw: &frameWriter{w: conn}, done: make(chan struct{}), pending: make(map[uint64]chan inbound)}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection and waits for the reader goroutine to
// exit, so nothing of this client (its last metric updates included) runs
// after Close returns; in-flight calls fail with a ConnError.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// SetTimeout bounds how long every subsequent call waits for its response;
// zero disables the bound. Per-call context deadlines compose with this
// connection-global bound: the earlier deadline wins. A timed-out call
// fails with a ConnError but leaves the multiplexed connection fully
// usable — the late response is discarded by its request ID when it
// eventually arrives.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// Traffic returns the cumulative framed request and response bytes: every
// frame written whole and every frame received intact, headers and
// checksums included. After Close both figures are final.
func (c *Client) Traffic() (sent, received int64) {
	return c.fw.total(), c.recvBytes.Load()
}

// readLoop is the single response reader: it delimits and verifies
// response frames as the server finishes requests (not necessarily in
// request order) and routes each to the waiting caller by ID, which
// decodes it. Responses whose caller gave up (timeout or cancellation)
// find no pending entry and are dropped. A framing error ends the loop and
// the connection.
func (c *Client) readLoop() {
	defer close(c.done)
	fr := newFrameReader(c.conn)
	for {
		typ, payload, err := fr.next(nil)
		if err != nil {
			c.fail(&ConnError{Op: "receive", Err: err})
			return
		}
		tmet.framesIn.Inc()
		tmet.bytesIn.Add(fr.n - c.recvBytes.Load())
		c.recvBytes.Store(fr.n)
		id := le.Uint64(payload)
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			ch <- inbound{typ, payload} // buffered; never blocks
		} else {
			tmet.lateDrops.Inc()
		}
	}
}

// fail marks the connection broken and releases every waiting caller.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
		tmet.connFails.Inc()
	}
	waiting := c.pending
	c.pending = make(map[uint64]chan inbound)
	c.mu.Unlock()
	for _, ch := range waiting {
		close(ch)
	}
	c.conn.Close()
}

// forget abandons a pending call (its caller stopped waiting). A response
// arriving later is skipped by ID in readLoop.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// call performs one pipelined exchange bounded by ctx and the
// connection-global timeout (earlier wins); what is left of that bound at
// send time travels with the request as its deadline budget. The request
// frame is written immediately — concurrent calls interleave on the
// connection — and the caller waits only for its own response. Expiry or
// cancellation abandons the call without disturbing the connection, and so
// does a request that cannot be encoded or a response whose body does not
// parse: only a failed write or a framing error on the read side is fatal
// to the connection.
func (c *Client) call(ctx context.Context, req *message) (*message, error) {
	if err := ctx.Err(); err != nil {
		return nil, &ConnError{Op: "call", Err: err}
	}
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return nil, err
	}
	req.id = c.nextID
	c.nextID++
	ch := make(chan inbound, 1)
	c.pending[req.id] = ch
	timeout := c.timeout
	c.mu.Unlock()
	tmet.inflight.Add(1)
	defer tmet.inflight.Add(-1)

	req.budget = timeout
	if deadline, ok := ctx.Deadline(); ok {
		if left := max(time.Until(deadline), 1); req.budget == 0 || left < req.budget {
			req.budget = left
		}
	}
	fb := frameBufs.Get().(*frameBuf)
	if err := fb.encode(req); err != nil {
		fb.release()
		c.forget(req.id)
		return nil, fmt.Errorf("%v: %w", req.typ, err)
	}
	werr := c.fw.write(fb)
	size := int64(fb.size)
	fb.release()
	if werr != nil {
		// A failed write may have left a torn frame on the stream; the
		// connection cannot be trusted for further calls.
		c.forget(req.id)
		c.fail(&ConnError{Op: "send", Err: werr})
		return nil, &ConnError{Op: "send", Err: werr}
	}
	tmet.framesOut.Inc()
	tmet.bytesOut.Add(size)

	var timer *time.Timer
	var expired <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case in, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.broken
			c.mu.Unlock()
			return nil, err
		}
		return open(req.typ, in)
	case <-ctx.Done():
		c.forget(req.id)
		tmet.timeouts.Inc()
		return nil, &ConnError{Op: "call", Err: ctx.Err()}
	case <-expired:
		c.forget(req.id)
		tmet.timeouts.Inc()
		return nil, &ConnError{Op: "call", Err: context.DeadlineExceeded}
	}
}

// open decodes the response frame to a request of type typ and turns its
// status into the call's outcome.
func open(typ msgType, in inbound) (*message, error) {
	resp := new(message)
	if err := decode(in.typ, in.payload, resp); err != nil {
		return nil, fmt.Errorf("%v: %w", typ, err)
	}
	if resp.typ != typ|respBit {
		return nil, fmt.Errorf("%w: %v answered with a %v", ErrBadPayload, typ, resp.typ)
	}
	switch resp.status {
	case statusOK:
		return resp, nil
	case statusRemote:
		return nil, &RemoteError{Msg: resp.errMsg}
	case statusExpired:
		return nil, &ConnError{Op: "call", Err: ErrExpired}
	case statusBadPayload:
		return nil, fmt.Errorf("%v: %w: server: %s", typ, ErrBadPayload, resp.errMsg)
	default:
		return nil, fmt.Errorf("%v: %w: response status %d", typ, ErrBadPayload, resp.status)
	}
}

// The methods below are one per RPC. Those without a ctx parameter are
// bounded by SetTimeout alone (context.TODO marks where ROADMAP item 9
// threads a deadline through the dynamic path).

// InstallIndex outsources a freshly built static index to the cloud.
func (c *Client) InstallIndex(idx *core.Index) error {
	blob, err := idx.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = c.call(context.TODO(), &message{typ: msgInstallIndex, blobs: [][]byte{blob}})
	return err
}

// InstallDynIndex outsources a dynamic index to the cloud.
func (c *Client) InstallDynIndex(idx *core.DynIndex) error {
	blob, err := idx.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = c.call(context.TODO(), &message{typ: msgInstallDynIndex, blobs: [][]byte{blob}})
	return err
}

// Ping checks liveness, bounded by ctx.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &message{typ: msgPing})
	return err
}

// SecRecBatch is the discovery exchange, bounded by ctx: q trapdoors in
// one request frame, q answers in one response frame, result q independent
// of what else rides in the batch (a single discovery is a batch of one).
// The returned ciphertexts are sub-slices of the response frame's buffer.
// It implements frontend.BatchDiscoveryServer and the fan-out primitive a
// shard pool puts a per-shard deadline on.
func (c *Client) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	if len(ts) == 0 {
		return [][]uint64{}, [][][]byte{}, nil
	}
	resp, err := c.call(ctx, &message{typ: msgSecRecBatch, trapdoors: ts})
	if err != nil {
		return nil, nil, err
	}
	if len(resp.batchIDs) != len(ts) {
		return nil, nil, fmt.Errorf("transport: batch of %d queries answered with %d results", len(ts), len(resp.batchIDs))
	}
	return resp.batchIDs, resp.batchBlobs, nil
}

// FetchProfiles implements frontend.ProfileFetcher remotely: aligned with
// the request, an empty entry for an identifier the server does not hold.
func (c *Client) FetchProfiles(ids []uint64) ([][]byte, error) {
	resp, err := c.call(context.TODO(), &message{typ: msgFetchProfiles, ids: ids})
	if err != nil {
		return nil, err
	}
	if len(resp.blobs) != len(ids) {
		return nil, fmt.Errorf("transport: %d ids answered with %d profiles", len(ids), len(resp.blobs))
	}
	return resp.blobs, nil
}

// PutProfiles uploads encrypted profiles in one frame; a caller with more
// than a frame should hold sends several (shard.Remote does).
func (c *Client) PutProfiles(profiles map[uint64][]byte) error {
	req := &message{typ: msgPutProfiles, ids: make([]uint64, 0, len(profiles)), blobs: make([][]byte, 0, len(profiles))}
	for id, ct := range profiles {
		req.ids = append(req.ids, id)
		req.blobs = append(req.blobs, ct)
	}
	_, err := c.call(context.TODO(), req)
	return err
}

// DeleteProfile removes an encrypted profile.
func (c *Client) DeleteProfile(id uint64) error {
	_, err := c.call(context.TODO(), &message{typ: msgDeleteProfile, user: id})
	return err
}

// FetchBuckets implements core.BucketStore remotely.
func (c *Client) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	resp, err := c.call(context.TODO(), &message{typ: msgFetchBuckets, refs: refs})
	if err != nil {
		return nil, err
	}
	return resp.buckets, nil
}

// StoreBuckets implements core.BucketStore remotely.
func (c *Client) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	_, err := c.call(context.TODO(), &message{typ: msgStoreBuckets, refs: refs, buckets: buckets})
	return err
}

// StoreImage uploads one encrypted image blob for a user.
func (c *Client) StoreImage(userID uint64, blob []byte) error {
	_, err := c.call(context.TODO(), &message{typ: msgStoreImage, user: userID, blobs: [][]byte{blob}})
	return err
}

// FetchImages downloads a user's encrypted images.
func (c *Client) FetchImages(userID uint64) ([][]byte, error) {
	resp, err := c.call(context.TODO(), &message{typ: msgFetchImages, user: userID})
	if err != nil {
		return nil, err
	}
	return resp.blobs, nil
}
