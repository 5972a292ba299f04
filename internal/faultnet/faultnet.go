// Package faultnet is a deterministic, scriptable fault-injection harness
// for the framed transport. A Network wraps net.Conn / net.Listener pairs
// (and plugs into transport.DialWith / transport.Server.Serve) and injects
// latency, mid-frame slow reads, dropped and truncated frames, connection
// resets, response stalls past the caller's timeout ("late" responses) and
// full peer partitions — all from a reproducible schedule keyed by a
// single seed.
//
// Determinism contract: every probabilistic decision on a connection is
// drawn from a PRNG seeded by (Plan.Seed, peer name, connection ordinal),
// where the ordinal counts dials/accepts per peer in creation order. Read
// faults fire at scheduled byte offsets of the connection's receive
// stream, so they do not depend on how the reader chunks its Reads; write
// faults are decided once per frame: the framed transport hands a whole
// frame's gather list to WriteBuffers in one call (a plain Write is
// likewise one decision per call). Runs that perform the same sequence of
// connection creations and frame exchanges therefore inject the same
// faults, and a failing simulation seed replays exactly.
//
// What is NOT deterministic under concurrency: when goroutines race to
// dial or to write, the interleaving assigns ordinals and consumes PRNG
// draws in racy order. Fault schedules remain seed-reproducible in
// distribution, and single-threaded phases replay bit-exactly; the
// simulation suite's invariants are written to hold under either.
package faultnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every error the harness fabricates, so tests can tell
// injected faults from real networking problems.
var ErrInjected = errors.New("faultnet: injected fault")

// Plan is the seeded fault schedule for one Network. Zero-valued fields
// disable their fault kind; a zero Plan injects nothing and the wrappers
// become transparent.
type Plan struct {
	// Seed keys every probabilistic decision. Two Networks with the same
	// Plan make the same decisions for the same (peer, ordinal) pairs.
	Seed int64

	// DialLatency delays every dial.
	DialLatency time.Duration
	// DialFailProb fails a dial outright with an ErrInjected error.
	DialFailProb float64

	// ReadFaultBytes is the mean gap, in received stream bytes, between
	// read-side faults on a connection; 0 disables read faults. At each
	// scheduled offset one of the enabled read fault kinds (latency, slow
	// window, stall) fires, chosen uniformly.
	ReadFaultBytes int
	// ReadLatency is the delay of a plain latency fault.
	ReadLatency time.Duration
	// SlowReadBytes makes a slow window: that many stream bytes are
	// delivered one byte per Read with a short delay each, which tears
	// frame payloads and headers across many partial reads.
	SlowReadBytes int
	// StallDelay blocks the receive stream once for this long. Set it
	// beyond the caller's timeout and every response behind the stall
	// arrives late — after the caller gave up — exercising the
	// late-response path of the multiplexed client.
	StallDelay time.Duration

	// DropProb swallows a written frame whole: the Write reports success
	// but nothing reaches the peer, so the stream stays well-formed and
	// the caller times out waiting for an answer that never comes.
	DropProb float64
	// TruncateProb writes only a prefix of the frame and then kills the
	// connection, leaving the peer a torn frame mid-stream.
	TruncateProb float64
	// ResetProb kills the connection instead of writing.
	ResetProb float64
}

// Network hands out fault-injecting dialers and listeners that share one
// seeded schedule, and scripts coarse events — partitions, forced write
// failures — on top of it.
type Network struct {
	plan    Plan
	enabled atomic.Bool

	mu       sync.Mutex
	ordinals map[string]int64          // next connection ordinal per peer
	conns    map[string]map[*Conn]bool // live wrapped conns per peer
	parts    map[string]bool           // partitioned peers
	script   map[string]int            // pending FailNextWrites per peer
}

// New returns a Network following plan, with fault injection enabled.
func New(plan Plan) *Network {
	n := &Network{
		plan:     plan,
		ordinals: make(map[string]int64),
		conns:    make(map[string]map[*Conn]bool),
		parts:    make(map[string]bool),
		script:   make(map[string]int),
	}
	n.enabled.Store(true)
	return n
}

// SetEnabled turns the probabilistic schedule on or off. Partitions and
// scripted write failures act regardless — they are explicit test steps,
// not background noise. Disabling faults lets a test run a clean setup or
// verification phase over the same wrapped connections.
func (n *Network) SetEnabled(v bool) { n.enabled.Store(v) }

// Partition cuts a peer off: its live connections are severed and every
// subsequent dial or write on its behalf fails until Heal. Severing closes
// the underlying connections, so blocked reads on both ends return.
func (n *Network) Partition(peer string) {
	n.mu.Lock()
	n.parts[peer] = true
	var victims []*Conn
	for c := range n.conns[peer] {
		victims = append(victims, c)
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.Close()
	}
}

// Heal reconnects a partitioned peer. Existing connections stay dead —
// clients re-dial, as they would after a real partition.
func (n *Network) Heal(peer string) {
	n.mu.Lock()
	delete(n.parts, peer)
	n.mu.Unlock()
}

// Partitioned reports whether peer is currently cut off.
func (n *Network) Partitioned(peer string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.parts[peer]
}

// FailNextWrites scripts the next k Writes across peer's connections to
// fail with an ErrInjected connection fault (the connection is killed, as
// a real mid-write failure would). Unlike the probabilistic schedule this
// fires even when SetEnabled(false), so tests can stage one precise fault.
func (n *Network) FailNextWrites(peer string, k int) {
	n.mu.Lock()
	n.script[peer] += k
	n.mu.Unlock()
}

// Dialer returns a transport-compatible dial function whose connections
// belong to peer: they follow peer's fault schedule and die with peer's
// partitions. Use a distinct peer name per logical client-server edge
// (e.g. one per shard) so partitions have shard granularity.
func (n *Network) Dialer(peer string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		ordinal, rng := n.newConnRNG(peer)
		if n.Partitioned(peer) {
			return nil, fmt.Errorf("%w: dial %s: peer %q partitioned", ErrInjected, addr, peer)
		}
		if n.enabled.Load() {
			if n.plan.DialLatency > 0 {
				time.Sleep(n.plan.DialLatency)
			}
			if n.plan.DialFailProb > 0 && rng.Float64() < n.plan.DialFailProb {
				return nil, fmt.Errorf("%w: dial %s: peer %q conn %d refused", ErrInjected, addr, peer, ordinal)
			}
		}
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return n.wrap(peer, raw, rng), nil
	}
}

// WrapListener interposes the harness on the accept side: every accepted
// connection is wrapped under peer's schedule. Pass the result to
// transport.Server.Serve to fault a server's receive/send paths.
func (n *Network) WrapListener(peer string, ln net.Listener) net.Listener {
	return &listener{Listener: ln, n: n, peer: peer}
}

type listener struct {
	net.Listener
	n    *Network
	peer string
}

func (l *listener) Accept() (net.Conn, error) {
	raw, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	_, rng := l.n.newConnRNG(l.peer)
	return l.n.wrap(l.peer, raw, rng), nil
}

// newConnRNG assigns the next connection ordinal for peer and derives the
// connection's PRNG from (seed, peer, ordinal).
func (n *Network) newConnRNG(peer string) (int64, *rand.Rand) {
	n.mu.Lock()
	ordinal := n.ordinals[peer]
	n.ordinals[peer] = ordinal + 1
	n.mu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", n.plan.Seed, peer, ordinal)
	return ordinal, rand.New(rand.NewSource(int64(h.Sum64())))
}

func (n *Network) wrap(peer string, raw net.Conn, rng *rand.Rand) *Conn {
	c := &Conn{Conn: raw, n: n, peer: peer, rng: rng, nextFault: -1}
	if n.plan.ReadFaultBytes > 0 && (n.plan.ReadLatency > 0 || n.plan.SlowReadBytes > 0 || n.plan.StallDelay > 0) {
		c.nextFault = rng.Intn(2 * n.plan.ReadFaultBytes)
	}
	n.mu.Lock()
	if n.conns[peer] == nil {
		n.conns[peer] = make(map[*Conn]bool)
	}
	n.conns[peer][c] = true
	n.mu.Unlock()
	return c
}

func (n *Network) forget(c *Conn) {
	n.mu.Lock()
	delete(n.conns[c.peer], c)
	n.mu.Unlock()
}

// takeScriptedWriteFault consumes one pending FailNextWrites slot.
func (n *Network) takeScriptedWriteFault(peer string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.script[peer] > 0 {
		n.script[peer]--
		return true
	}
	return false
}

// slowReadDelay paces each byte of a slow window; small enough that a
// whole window stays well under call timeouts, large enough to force the
// peer's reader through many partial reads.
const slowReadDelay = 200 * time.Microsecond

// Conn is one fault-injected connection. All fault decisions are drawn
// from the connection's own seeded PRNG; see the package comment for the
// determinism contract.
type Conn struct {
	net.Conn
	n    *Network
	peer string

	mu        sync.Mutex
	rng       *rand.Rand
	readOff   int // received stream bytes so far
	nextFault int // stream offset of the next read fault; -1 = none
	slowLeft  int // bytes remaining in the current slow window
	stalled   bool
}

// Read applies the read-side schedule: at each scheduled stream offset it
// sleeps (latency), opens a byte-at-a-time slow window, or stalls the
// stream past the caller's timeout. Faults are keyed to byte offsets, so
// the schedule is independent of how callers chunk their reads.
func (c *Conn) Read(p []byte) (int, error) {
	if c.n.Partitioned(c.peer) {
		c.Close()
		return 0, fmt.Errorf("%w: read: peer %q partitioned", ErrInjected, c.peer)
	}
	var sleep time.Duration
	limit := len(p)
	if c.n.enabled.Load() {
		c.mu.Lock()
		switch {
		case c.slowLeft > 0:
			limit, sleep = 1, slowReadDelay
		case c.nextFault >= 0 && c.readOff >= c.nextFault:
			switch c.pickReadFault() {
			case faultLatency:
				sleep = c.n.plan.ReadLatency
			case faultSlow:
				c.slowLeft = c.n.plan.SlowReadBytes
				limit, sleep = 1, slowReadDelay
			case faultStall:
				sleep = c.n.plan.StallDelay
				c.stalled = true
			}
			c.nextFault = c.readOff + 1 + c.rng.Intn(2*c.n.plan.ReadFaultBytes)
		}
		c.mu.Unlock()
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if limit < len(p) && limit > 0 {
		p = p[:limit]
	}
	nr, err := c.Conn.Read(p)
	c.mu.Lock()
	c.readOff += nr
	if c.slowLeft > 0 {
		c.slowLeft -= nr
		if c.slowLeft < 0 {
			c.slowLeft = 0
		}
	}
	c.mu.Unlock()
	return nr, err
}

type readFault int

const (
	faultLatency readFault = iota
	faultSlow
	faultStall
)

// pickReadFault chooses uniformly among the read fault kinds the plan
// enables. A stall fires at most once per connection — one late-response
// episode per stream is the interesting case; repeating it only slows the
// run. Caller holds c.mu.
func (c *Conn) pickReadFault() readFault {
	kinds := make([]readFault, 0, 3)
	if c.n.plan.ReadLatency > 0 {
		kinds = append(kinds, faultLatency)
	}
	if c.n.plan.SlowReadBytes > 0 {
		kinds = append(kinds, faultSlow)
	}
	if c.n.plan.StallDelay > 0 && !c.stalled {
		kinds = append(kinds, faultStall)
	}
	if len(kinds) == 0 {
		return faultLatency // ReadLatency==0: harmless no-op sleep
	}
	return kinds[c.rng.Intn(len(kinds))]
}

// Write applies the write-side schedule once per call; it is WriteBuffers
// for a frame that happens to be one contiguous buffer.
func (c *Conn) Write(p []byte) (int, error) {
	bufs := net.Buffers{p}
	n, err := c.WriteBuffers(&bufs)
	return int(n), err
}

// WriteBuffers is how the framed transport writes: one call per frame,
// carrying the frame's whole gather list (header, the spliced ciphertext
// slices, checksum). The write-side schedule is drawn once for the call,
// so drop/truncate/reset act on whole frames — a dropped frame vanishes
// and leaves the stream well-formed, a truncated frame tears mid-frame and
// kills the connection, a reset kills it before any bytes move — and a
// frame that survives goes to the wrapped connection as the same vectored
// write production uses (one writev on a *net.TCPConn).
func (c *Conn) WriteBuffers(bufs *net.Buffers) (int64, error) {
	if c.n.Partitioned(c.peer) {
		c.Close()
		return 0, fmt.Errorf("%w: write: peer %q partitioned", ErrInjected, c.peer)
	}
	if c.n.takeScriptedWriteFault(c.peer) {
		c.Close()
		return 0, fmt.Errorf("%w: write: scripted failure on peer %q", ErrInjected, c.peer)
	}
	if c.n.enabled.Load() {
		c.mu.Lock()
		u := c.rng.Float64()
		c.mu.Unlock()
		size := 0
		for _, b := range *bufs {
			size += len(b)
		}
		plan := &c.n.plan
		switch {
		case u < plan.DropProb:
			*bufs = nil
			return int64(size), nil
		case u < plan.DropProb+plan.TruncateProb:
			prefix := make(net.Buffers, 0, len(*bufs))
			for cut := size / 2; cut > 0; {
				b := (*bufs)[len(prefix)]
				b = b[:min(len(b), cut)]
				prefix = append(prefix, b)
				cut -= len(b)
			}
			prefix.WriteTo(c.Conn)
			c.Close()
			return 0, fmt.Errorf("%w: write: frame truncated on peer %q", ErrInjected, c.peer)
		case u < plan.DropProb+plan.TruncateProb+plan.ResetProb:
			c.Close()
			return 0, fmt.Errorf("%w: write: connection reset on peer %q", ErrInjected, c.peer)
		}
	}
	return bufs.WriteTo(c.Conn)
}

// Close unregisters the connection and closes the underlying one.
func (c *Conn) Close() error {
	c.n.forget(c)
	return c.Conn.Close()
}
