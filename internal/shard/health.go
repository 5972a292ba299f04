package shard

import (
	"context"
	"sync"
	"time"
)

// ProberConfig tunes the membership health prober.
type ProberConfig struct {
	// Interval between probe rounds for the background loop (Start);
	// default 1s. ProbeOnce ignores it.
	Interval time.Duration
	// Timeout bounds each ping and version probe; default 250ms.
	Timeout time.Duration
	// DemoteAfter is how many consecutive failed probes demote a replica
	// to down; default 2, so one lost probe never flaps a healthy member.
	DemoteAfter int
	// ReadmitAfter is how many consecutive successful probes a down
	// replica needs before re-admission; default 1.
	ReadmitAfter int
}

func (c ProberConfig) withDefaults() ProberConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 250 * time.Millisecond
	}
	if c.DemoteAfter <= 0 {
		c.DemoteAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 1
	}
	return c
}

// Prober is the fleet's membership/health driver: it pings every replica
// of every group periodically, demotes a replica after DemoteAfter
// consecutive failures (writes then skip it, reads avoid it), and
// re-admits it once probes succeed again. On re-admission the replica's
// server-side write version is compared against the group's: a replica
// that provably applied every write (bookkeeping current AND the server
// reports the group version — a freshly restarted, empty server reports
// 0) returns straight to serving reads; anything else re-admits as
// lagging, taking writes but no reads until the Repairer re-syncs it.
//
// ProbeOnce is exported so deterministic tests and operator tooling can
// drive probe rounds explicitly; Start runs the same round on a ticker.
type Prober struct {
	cfg    ProberConfig
	groups []*ReplicaGroup
	bg     loop
}

// NewProber assembles a prober over the given groups.
func NewProber(cfg ProberConfig, groups ...*ReplicaGroup) *Prober {
	return &Prober{cfg: cfg.withDefaults(), groups: groups}
}

// ProbeOnce runs one probe round across every replica of every group,
// concurrently, and returns when all probes resolved.
func (p *Prober) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, g := range p.groups {
		g.mu.Lock()
		n := len(g.reps)
		g.mu.Unlock()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(g *ReplicaGroup, i int) {
				defer wg.Done()
				p.probeReplica(ctx, g, i)
			}(g, i)
		}
	}
	wg.Wait()
	for _, g := range p.groups {
		g.syncLagMetric()
	}
}

// probeReplica pings one replica and applies demotion or re-admission.
func (p *Prober) probeReplica(ctx context.Context, g *ReplicaGroup, i int) {
	g.mu.Lock()
	rep := g.reps[i]
	node := rep.node
	g.mu.Unlock()

	cctx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	err := node.Ping(cctx)
	cancel()

	if err != nil {
		demoted := false
		g.mu.Lock()
		rep.probeOKs = 0
		rep.probeFails++
		if !rep.down && rep.probeFails >= p.cfg.DemoteAfter {
			rep.down = true
			demoted = true
		}
		g.mu.Unlock()
		if demoted {
			g.met.demotion()
		}
		return
	}

	g.mu.Lock()
	rep.probeFails = 0
	if !rep.down {
		g.mu.Unlock()
		return
	}
	rep.probeOKs++
	if rep.probeOKs < p.cfg.ReadmitAfter {
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()

	// The replica answers probes again; check its server-side version
	// before letting it serve reads. The network call happens outside the
	// group lock, so the comparison re-reads group state afterwards.
	cctx, cancel = context.WithTimeout(ctx, p.cfg.Timeout)
	v, verr := node.Version(cctx)
	cancel()
	if verr != nil {
		return // still flaky; next round retries
	}
	g.mu.Lock()
	rep.down = false
	rep.probeOKs = 0
	if !(rep.current(g.version) && v == g.version) {
		// Restarted with lost state (server version behind) or missed
		// writes while down: take writes, no reads, until repaired.
		rep.lagging = true
	}
	g.mu.Unlock()
	g.met.readmit()
}

// Start launches the background probe loop; Stop ends it. Start after
// Stop restarts it.
func (p *Prober) Start() {
	p.bg.start(p.cfg.Interval, func() { p.ProbeOnce(context.Background()) })
}

// Stop ends the background probe loop and waits for it to exit.
func (p *Prober) Stop() { p.bg.stop() }

// loop runs one round every interval on a background goroutine between
// start and stop: the loop behind both the Prober and the Repairer. A
// second start while running is a no-op; start after stop restarts it.
type loop struct {
	mu   sync.Mutex
	quit chan struct{}
	done chan struct{}
}

func (l *loop) start(interval time.Duration, round func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.quit != nil {
		return
	}
	l.quit, l.done = make(chan struct{}), make(chan struct{})
	go func(quit, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				round()
			}
		}
	}(l.quit, l.done)
}

// stop ends the loop, if running, and waits for its goroutine to exit.
func (l *loop) stop() {
	l.mu.Lock()
	quit, done := l.quit, l.done
	l.quit, l.done = nil, nil
	l.mu.Unlock()
	if quit != nil {
		close(quit)
		<-done
	}
}

// RepairFunc re-syncs replica dst of the given partition from the healthy
// replica src: after it returns nil, dst holds the same logical state as
// src. The frontend supplies the implementation (it holds the keys the
// dynamic scheme's re-masking machinery needs); see
// frontend.ReplicaSync.Repair.
type RepairFunc func(group int, src, dst ReplicaNode) error

// Repairer is the fleet's anti-entropy loop: each round it finds, per
// group, a healthy source replica that applied every write and re-syncs
// every reachable lagging replica from it, returning the repaired
// replicas to read service. A whole repair runs under the group's write
// lock, so no write interleaves a half-copied state; the copy itself is
// the dynamic scheme's ordinary fetch/re-mask/store sweep, so the cloud
// observes repair as it observes churn (DESIGN.md §17).
//
// If no replica is current — every replica missed some write, which only
// happens when a write failed everywhere and was reported failed to the
// caller — the repairer adopts the reachable replica with the longest
// applied prefix as the new source of truth and repairs the rest from it.
//
// RepairOnce is exported for deterministic tests and operator tooling;
// Start runs rounds on a ticker.
type Repairer struct {
	cfg    RepairerConfig
	repair RepairFunc
	groups []*ReplicaGroup
	bg     loop
}

// RepairerConfig tunes the anti-entropy loop.
type RepairerConfig struct {
	// Interval between background rounds (Start); default 2s.
	Interval time.Duration
}

func (c RepairerConfig) withDefaults() RepairerConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	return c
}

// NewRepairer assembles a repairer over the given groups.
func NewRepairer(cfg RepairerConfig, repair RepairFunc, groups ...*ReplicaGroup) *Repairer {
	return &Repairer{cfg: cfg.withDefaults(), repair: repair, groups: groups}
}

// RepairOnce runs one anti-entropy round over every group and returns how
// many replicas were successfully repaired.
func (r *Repairer) RepairOnce(ctx context.Context) int {
	repaired := 0
	for _, g := range r.groups {
		repaired += r.repairGroup(ctx, g)
	}
	return repaired
}

// repairGroup runs one round for one group under its write lock.
func (r *Repairer) repairGroup(ctx context.Context, g *ReplicaGroup) int {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	defer g.syncLagMetric()

	g.mu.Lock()
	v := g.version
	srcIdx := -1
	for i, rep := range g.reps {
		if !rep.down && rep.current(v) {
			srcIdx = i
			break
		}
	}
	if srcIdx < 0 {
		// No current replica: adopt the longest applied prefix among the
		// reachable replicas as the new source of truth. The writes past
		// that prefix failed on every replica and were reported failed.
		best := -1
		for i, rep := range g.reps {
			if rep.down {
				continue
			}
			if best < 0 || rep.applied > g.reps[best].applied {
				best = i
			}
		}
		if best < 0 {
			g.mu.Unlock()
			return 0
		}
		rep := g.reps[best]
		node := rep.node
		g.mu.Unlock()
		// Stamp the adopted replica's server with the group version so a
		// later restart/readmission comparison stays consistent.
		if err := node.ApplyVersion(v); err != nil {
			return 0
		}
		g.mu.Lock()
		rep.applied = v
		rep.lagging = false
		srcIdx = best
	}
	srcNode := g.reps[srcIdx].node

	type fix struct {
		i int
		n ReplicaNode
	}
	var fixes []fix
	for i, rep := range g.reps {
		if i == srcIdx || rep.down || rep.current(v) {
			continue
		}
		fixes = append(fixes, fix{i: i, n: rep.node})
	}
	g.mu.Unlock()

	repaired := 0
	for _, f := range fixes {
		if ctx.Err() != nil || r.repair == nil {
			break
		}
		if err := r.repair(g.id, srcNode, f.n); err != nil {
			continue // unreachable or mid-repair fault; next round retries
		}
		if err := f.n.ApplyVersion(v); err != nil {
			continue
		}
		g.mu.Lock()
		rep := g.reps[f.i]
		rep.applied = v
		rep.lagging = false
		rep.readFaults = 0
		g.mu.Unlock()
		g.met.repair()
		repaired++
	}
	return repaired
}

// Start launches the background anti-entropy loop; Stop ends it.
func (r *Repairer) Start() {
	r.bg.start(r.cfg.Interval, func() { r.RepairOnce(context.Background()) })
}

// Stop ends the background loop and waits for it to exit.
func (r *Repairer) Stop() { r.bg.stop() }
