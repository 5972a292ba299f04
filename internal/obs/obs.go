// Package obs is the stdlib-only observability substrate of the system:
// atomic counters and gauges, lock-free fixed-bucket log-scale histograms,
// striped counters for contended hot paths, a lightweight per-query trace
// span API with monotonic timestamps, and a Registry whose Snapshot/Diff
// pair turns the live counters into the per-stage breakdowns the paper's
// evaluation (Sec. VI) reports from one-off scripts.
//
// Design constraints, in order:
//
//  1. Hot-path safety. Every mutation is a plain atomic operation on
//     preallocated state — no locks, no maps, no allocation. PR 2/3's
//     zero-allocation fast paths stay zero-allocation when instrumented.
//  2. Nil safety. Every method of every metric type is a no-op on a nil
//     receiver, so instrumented code never guards a handle: disabling
//     observability is setting handles to nil, not recompiling.
//  3. Leakage discipline. Metrics record counts, sizes and timings of
//     operations the cloud already observes (access pattern, constant
//     per-query bucket count, frame traffic) — nothing derived from key
//     material or plaintext. See DESIGN.md §13.
package obs

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (in-flight requests, open
// connections). The zero value is ready; a nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// stripes is the cell count of a StripedCounter. Sixteen 64-byte-padded
// cells keep a counter hammered from every core off a single cache line.
const stripes = 16

// stripedCell is one cache-line-padded counter cell.
type stripedCell struct {
	v atomic.Int64
	_ [56]byte
}

// StripedCounter is a counter for hot paths touched concurrently by many
// cores (per-PRF-call op counts): adds land on one of 16 padded cells
// chosen by a caller-supplied hint, so parallel writers do not bounce one
// cache line. Reads sum the cells. A nil *StripedCounter is a no-op.
type StripedCounter struct {
	cells [stripes]stripedCell
}

// Add increments the counter by d. hint selects the cell; callers pass a
// cheap per-goroutine-ish value (e.g. a pooled scratch's identity) so
// concurrent writers spread across cells. Any hint is correct — only
// contention, never the total, depends on it.
func (c *StripedCounter) Add(hint uint32, d int64) {
	if c != nil {
		c.cells[hint%stripes].v.Add(d)
	}
}

// Load returns the summed value (0 for nil).
func (c *StripedCounter) Load() int64 {
	if c == nil {
		return 0
	}
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].v.Load()
	}
	return sum
}

// Histogram bucket layout: values (nanoseconds, bytes, counts — any
// non-negative int64) are assigned to fixed log-scale buckets with 8
// sub-buckets per power of two, covering [0, 2^40) with the last bucket
// absorbing everything larger. 2^40 ns ≈ 18 minutes, far beyond any
// per-query latency this system produces; relative bucket error is ≤ 1/8.
const (
	histSubBits = 3                             // sub-buckets per octave = 2^3
	histSub     = 1 << histSubBits              // 8
	histOctaves = 40                            // value range [0, 2^40)
	histBuckets = histOctaves*histSub + histSub // + the [0, 2^histSubBits) ramp
)

// Histogram is a lock-free fixed-bucket log-scale histogram. Observe is a
// few atomic adds on preallocated arrays: no locks, no allocation. The
// zero value is ready; a nil *Histogram is a no-op.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSub {
		return int(v) // exact buckets for tiny values
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the top bit, >= histSubBits
	sub := int((uint64(v) >> (uint(exp) - histSubBits)) & (histSub - 1))
	idx := (exp-histSubBits+1)*histSub + sub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketUpper returns the exclusive upper bound of bucket idx, the value
// reported for quantiles that land in it.
func bucketUpper(idx int) int64 {
	if idx < histSub {
		return int64(idx) + 1
	}
	exp := idx/histSub - 1 + histSubBits
	sub := idx % histSub
	return int64(histSub+sub+1) << (uint(exp) - histSubBits)
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start in nanoseconds.
// time.Since reads the monotonic clock, so recorded durations are immune
// to wall-clock adjustment.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// snap copies the histogram state into a HistSnap.
func (h *Histogram) snap() HistSnap {
	s := HistSnap{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64, 16)
			}
			s.Buckets[i] = c
		}
	}
	return s
}

// HistSnap is an immutable snapshot of a histogram: total count, sum and
// max plus the sparse bucket counts.
type HistSnap struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets map[int]int64 // bucket index -> count; nil when empty
}

// Quantile returns the value at quantile q in [0, 1] (the upper bound of
// the bucket where the cumulative count crosses q), or 0 when empty.
func (s HistSnap) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count-1))
	var cum int64
	for idx := 0; idx < histBuckets; idx++ {
		c, ok := s.Buckets[idx]
		if !ok {
			continue
		}
		cum += c
		if cum > rank {
			v := bucketUpper(idx)
			if v > s.Max && s.Max > 0 {
				return s.Max // never report beyond the observed max
			}
			return v
		}
	}
	return s.Max
}

// Mean returns the exact mean of observed values, or 0 when empty.
func (s HistSnap) Mean() int64 {
	if s.Count <= 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Diff returns the histogram activity between prev and s: bucket counts,
// count and sum subtract. Max cannot be windowed from two cumulative
// snapshots; the diff keeps s's lifetime max.
func (s HistSnap) Diff(prev HistSnap) HistSnap {
	out := HistSnap{
		Count: s.Count - prev.Count,
		Sum:   s.Sum - prev.Sum,
		Max:   s.Max,
	}
	for idx, c := range s.Buckets {
		if d := c - prev.Buckets[idx]; d != 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[int]int64, len(s.Buckets))
			}
			out.Buckets[idx] = d
		}
	}
	return out
}

// Registry is a named collection of metrics. All accessors are
// get-or-create and safe for concurrent use; handles are stable for the
// registry's lifetime, so hot paths resolve them once and never touch the
// registry lock again. A nil *Registry hands out nil handles, which are
// themselves no-ops: a nil registry IS the disabled mode.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	striped  map[string]*StripedCounter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		striped:  make(map[string]*StripedCounter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the tier packages register their
// metrics in and the /metrics endpoint serves. Replaceable in tests via
// the tiers' SetRegistry hooks, not swapped at runtime.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Striped returns the named striped counter, creating it on first use.
func (r *Registry) Striped(name string) *StripedCounter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.striped[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.striped[name]; c == nil {
		c = &StripedCounter{}
		r.striped[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Histogram names carry no unit suffix; Flatten derives suffixed keys
// (<name>_p99_ns, ...) from them.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a consistent-enough point-in-time copy of a registry:
// counters and gauges by name plus full histogram state. Individual
// metrics are read atomically; the set is not a global atomic cut (queries
// in flight during the snapshot may straddle it), which is the standard
// and sufficient contract for rate and breakdown computation.
type Snapshot struct {
	At         time.Time
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistSnap
}

// Snapshot captures the current state of every registered metric.
// Striped counters appear in Counters under their registered name.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{At: time.Now()}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s.Counters = make(map[string]int64, len(r.counters)+len(r.striped))
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, c := range r.striped {
		s.Counters[name] = c.Load()
	}
	s.Gauges = make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	s.Histograms = make(map[string]HistSnap, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = h.snap()
	}
	return s
}

// Diff returns the activity between prev and s: counters and histogram
// counts/sums subtract (a metric absent from prev diffs against zero);
// gauges keep their current value (instantaneous readings do not
// subtract). Benchmarks and the experiment harness bracket a workload with
// two Snapshots and report the Diff.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		At:         s.At,
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistSnap, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h.Diff(prev.Histograms[name])
	}
	return out
}

// Flatten renders the snapshot as one flat name → value map: counters and
// gauges under their own names, each histogram as derived keys
// <name>_count, <name>_sum_ns, <name>_avg_ns, <name>_p50_ns, <name>_p99_ns
// and <name>_max_ns. This is the /metrics JSON body and the shape CI
// smoke checks assert on.
func (s Snapshot) Flatten() map[string]int64 {
	out := make(map[string]int64, len(s.Counters)+len(s.Gauges)+6*len(s.Histograms))
	for name, v := range s.Counters {
		out[name] = v
	}
	for name, v := range s.Gauges {
		out[name] = v
	}
	for name, h := range s.Histograms {
		out[name+"_count"] = h.Count
		out[name+"_sum_ns"] = h.Sum
		out[name+"_avg_ns"] = h.Mean()
		out[name+"_p50_ns"] = h.Quantile(0.50)
		out[name+"_p99_ns"] = h.Quantile(0.99)
		out[name+"_max_ns"] = h.Max
	}
	return out
}

// Keys returns the flattened metric names in sorted order.
func (s Snapshot) Keys() []string {
	flat := s.Flatten()
	keys := make([]string, 0, len(flat))
	for k := range flat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Span is the per-query trace primitive: a value type (no heap, no
// allocation) that splits one operation into consecutive stages and feeds
// each stage's duration into a histogram. Timestamps are monotonic
// (time.Time's monotonic reading). The zero Span is inert; Start arms it.
//
//	var sp obs.Span
//	sp.Start()
//	... trapdoor ...
//	sp.Mark(m.trapdoorNs, nil)
//	... fan-out ...
//	sp.Mark(m.fanoutNs, nil)
//	sp.Finish(m.totalNs)
type Span struct {
	start time.Time
	last  time.Time
	tr    *Trace
}

// Start arms the span at the current monotonic time. A nil *Span is a
// no-op (as are all Span methods), so instrumented helpers can take an
// optional span without guarding.
func (s *Span) Start() {
	if s == nil {
		return
	}
	now := time.Now()
	s.start = now
	s.last = now
}

// StartTraced arms the span and attaches a Trace that records every
// subsequent stage with its name; tr may be nil (plain Start).
func (s *Span) StartTraced(tr *Trace) {
	if s == nil {
		return
	}
	s.Start()
	s.tr = tr
}

// Mark closes the current stage: the time since the previous Mark (or
// Start) is observed into h and, when a trace is attached, recorded under
// name. Nil or unarmed spans are no-ops.
func (s *Span) Mark(name string, h *Histogram) {
	if s == nil || s.start.IsZero() {
		return
	}
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	h.Observe(d.Nanoseconds())
	s.tr.add(name, d)
}

// Finish closes the span: the time since Start is observed into h and
// recorded in the attached trace as the total.
func (s *Span) Finish(h *Histogram) {
	if s == nil || s.start.IsZero() {
		return
	}
	total := time.Since(s.start)
	h.Observe(total.Nanoseconds())
	s.tr.finish(total)
}

// Stage is one named step of a Trace.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Trace is the allocating, human-facing form of a span: it records each
// stage with its name so a single query's latency breakdown can be
// returned to a caller or logged. Traces are single-goroutine state. A nil
// *Trace is a no-op, so the same instrumented path serves both traced and
// untraced queries.
type Trace struct {
	Op     string
	Stages []Stage
	Total  time.Duration
}

// NewTrace returns an empty trace for the named operation.
func NewTrace(op string) *Trace { return &Trace{Op: op} }

type traceKey struct{}

// WithTrace returns a context carrying tr: any instrumented operation run
// under it records its stages into tr (sp.StartTraced(TraceFrom(ctx))).
// One trace follows one operation — it is single-goroutine state.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace ctx carries, or nil (the no-op trace) when
// it carries none. The lookup does not allocate.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

func (t *Trace) add(name string, d time.Duration) {
	if t != nil {
		t.Stages = append(t.Stages, Stage{Name: name, Dur: d})
	}
}

func (t *Trace) finish(total time.Duration) {
	if t != nil {
		t.Total = total
	}
}

// String renders the trace as a one-line breakdown:
// "discover total=1.2ms trapdoor=0.3ms fanout=0.7ms rank=0.2ms".
func (t *Trace) String() string {
	if t == nil {
		return "<nil trace>"
	}
	out := t.Op + " total=" + t.Total.String()
	for _, s := range t.Stages {
		out += fmt.Sprintf(" %s=%s", s.Name, s.Dur)
	}
	return out
}
