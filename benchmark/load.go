package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opFunc performs the next operation of one client (or open-loop lane) and
// reports its kind and whether it succeeded. An error, an overload
// rejection, a partial answer or (after the phase) an oracle mismatch all
// make an operation a failed one.
type opFunc func(lane int) (opKind, bool)

// phaseStats is what one load phase measured.
type phaseStats struct {
	Wall      time.Duration
	Attempted int
	Failed    int
	// Lat[k] holds the latency in milliseconds of every successful
	// operation of kind k, unsorted; failed operations have none.
	Lat [numKinds][]float64
	// Windows cuts the phase into consecutive slices of windowLen. The
	// reference box loses one of its two cores to a neighbour for about a
	// second every few seconds, which only ever makes a window worse. Each
	// figure is therefore taken per window and reported as the quartile
	// window on the good side (the upper quartile of a rate, the lower
	// quartile of a time): what the program does when the host leaves it
	// alone. Over ten runs that quartile spreads half as wide as the
	// median window and a fifth as wide as the whole-phase mean, which
	// mostly measures the neighbour.
	Windows []window
	Mem     memDelta
	// LateMs holds, for each open-loop arrival the generator slept for,
	// how long after its due time the operation was issued.
	LateMs []float64
}

// window is one slice of a phase: the successful operations that ended in
// it and the CPU time the whole process (both tiers) spent during it.
type window struct {
	Dur time.Duration
	CPU time.Duration
	Lat [numKinds][]float64
}

func (w window) ops() int {
	n := 0
	for _, l := range w.Lat {
		n += len(l)
	}
	return n
}

// windowLen is short enough that some windows fall between the
// host's disturbances, which last a tenth of a second to a second and come
// about once a second; long enough that a window of the slowest workload
// still holds a few hundred operations.
const windowLen = 250 * time.Millisecond

// overWindows evaluates f on every window and returns the q-quantile of
// the values; windows for which f reports false are skipped.
func (st phaseStats) overWindows(q float64, f func(w window) (float64, bool)) float64 {
	var vals []float64
	for _, w := range st.Windows {
		if v, ok := f(w); ok {
			vals = append(vals, v)
		}
	}
	return percentile(vals, q)
}

// The good-side quartile of a time is the lower one, of a rate the upper.
const (
	goodTime = 0.25
	goodRate = 0.75
)

// opsPerSecond is the completion rate of the upper-quartile window.
func (st phaseStats) opsPerSecond() float64 {
	return st.overWindows(goodRate, func(w window) (float64, bool) { return float64(w.ops()) / w.Dur.Seconds(), true })
}

// cpuMsPerOp is the process CPU time per completed operation of the
// lower-quartile window.
func (st phaseStats) cpuMsPerOp() float64 {
	return st.overWindows(goodTime, func(w window) (float64, bool) { return ms(w.CPU) / float64(w.ops()), w.ops() > 0 })
}

// latency is the lower quartile over windows of the window's p-quantile
// latency, in milliseconds, of the operations pick selects. A quantile is
// only read off a sample that has ten values beyond it, so adjacent
// windows are first merged until each holds 10/(1-p) operations — a p99
// comes from stretches of at least 1000, which at a slow open-loop rate is
// the whole phase.
func (st phaseStats) latencyOf(p float64, pick func(w window) []float64) float64 {
	need := int(10 / (1 - p))
	var groups [][]float64
	var cur []float64
	for _, w := range st.Windows {
		cur = append(cur, pick(w)...)
		if len(cur) >= need {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(groups) == 0 || len(cur) >= need/2 {
		groups = append(groups, cur)
	} else {
		groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
	}
	vals := make([]float64, len(groups))
	for i, g := range groups {
		vals[i] = percentile(g, p)
	}
	return percentile(vals, goodTime)
}

// latency is latencyOf for operations of kind k.
func (st phaseStats) latency(k opKind, p float64) float64 {
	return st.latencyOf(p, func(w window) []float64 { return w.Lat[k] })
}

// updateLatency is latencyOf for the churn workload's two kinds of update
// taken together.
func (st phaseStats) updateLatency(p float64) float64 {
	return st.latencyOf(p, func(w window) []float64 {
		return append(append([]float64(nil), w.Lat[opDelete]...), w.Lat[opInsert]...)
	})
}

type memDelta struct {
	Mallocs    uint64
	AllocBytes uint64
	GCCycles   uint32
}

// sample is one successful operation: when it ended, counted from the
// start of the phase, and how long it took.
type sample struct {
	end  time.Duration
	lat  float64
	kind opKind
}

type laneLog struct {
	attempted, failed int
	samples           []sample
	late              []float64
}

// edge is a window boundary: the time it was taken at and the process CPU
// time consumed until then.
type edge struct {
	at  time.Duration
	cpu time.Duration
}

// mergeLanes folds the lanes' logs into st and cuts them into the windows
// the edges delimit.
func mergeLanes(st *phaseStats, logs []laneLog, edges []edge) {
	st.Windows = make([]window, len(edges)-1)
	for i := range st.Windows {
		st.Windows[i].Dur = edges[i+1].at - edges[i].at
		st.Windows[i].CPU = edges[i+1].cpu - edges[i].cpu
	}
	for i := range logs {
		st.Attempted += logs[i].attempted
		st.Failed += logs[i].failed
		st.LateMs = append(st.LateMs, logs[i].late...)
		for _, s := range logs[i].samples {
			st.Lat[s.kind] = append(st.Lat[s.kind], s.lat)
			w := sort.Search(len(st.Windows), func(j int) bool { return edges[j+1].at >= s.end })
			if w < len(st.Windows) {
				st.Windows[w].Lat[s.kind] = append(st.Windows[w].Lat[s.kind], s.lat)
			}
		}
	}
	// A last window cut short by the end of the phase says little.
	if n := len(st.Windows); n > 1 && st.Windows[n-1].Dur < windowLen/2 {
		st.Windows = st.Windows[:n-1]
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runClosed drives clients lockstep callers — each issues its next
// operation only when the previous one returned — for dur, and accounts
// CPU per window and allocation over exactly that interval.
func runClosed(clients int, dur time.Duration, do opFunc) phaseStats {
	logs := make([]laneLog, clients)
	var wg sync.WaitGroup
	var st phaseStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(dur)
	edges := []edge{{0, processCPU()}}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(windowLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				edges = append(edges, edge{time.Since(start), processCPU()})
			case <-stop:
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				kind, ok := do(c)
				l.attempted++
				if ok {
					end := time.Since(start)
					l.samples = append(l.samples, sample{end, ms(end - t0.Sub(start)), kind})
				} else {
					l.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	st.Wall = time.Since(start)
	edges = append(edges, edge{st.Wall, processCPU()})
	runtime.ReadMemStats(&m1)
	st.Mem = memDelta{
		Mallocs:    m1.Mallocs - m0.Mallocs,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles:   m1.NumGC - m0.NumGC,
	}
	mergeLanes(&st, logs, edges)
	return st
}

// runOpen offers operations at a fixed total rate for dur, whatever the
// system's speed: each of lanes independent Poisson arrival streams issues
// its operations in due order, one at a time, and every latency is taken
// from the moment the operation was due, so time spent queued behind a
// slow predecessor counts. Arrivals due after dur are not issued.
func runOpen(seed int64, stream string, lanes int, rate float64, dur time.Duration, do opFunc) phaseStats {
	logs := make([]laneLog, lanes)
	var wg sync.WaitGroup
	var st phaseStats
	start := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			l := &logs[lane]
			arr := newArrivals(seed, stream, lane, rate/float64(lanes))
			for {
				due := time.Duration(arr.next() * float64(time.Second))
				if due >= dur {
					return
				}
				if wait := due - time.Since(start); wait > 0 {
					sleepPrecisely(wait)
					l.late = append(l.late, ms(time.Since(start)-due))
				}
				kind, ok := do(lane)
				l.attempted++
				if ok {
					end := time.Since(start)
					l.samples = append(l.samples, sample{end, ms(end - due), kind})
				} else {
					l.failed++
				}
			}
		}(lane)
	}
	wg.Wait()
	st.Wall = time.Since(start)
	// No CPU is accounted to an open loop, so its windows are a plain grid.
	var edges []edge
	for at := time.Duration(0); at < st.Wall; at += windowLen {
		edges = append(edges, edge{at: at})
	}
	mergeLanes(&st, logs, append(edges, edge{at: st.Wall}))
	return st
}

// sleepPrecisely blocks the calling thread in the kernel for d. time.Sleep
// would park the goroutine on the runtime's timers, which an idle process
// polls with millisecond granularity: arrivals would be issued half a
// millisecond late on average, several times a cache hit's latency.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// percentile returns the p-quantile (nearest rank) of vals, which it
// sorts in place; 0 for an empty sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[int(p*float64(len(vals)-1))]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// processCPU returns the user+system CPU time consumed by this process so
// far. Both tiers run in it, so this is the cost an operator of the whole
// deployment pays.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
