package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("x"); c2 != c {
		t.Fatalf("Counter not get-or-create stable")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every metric method must be a no-op on nil receivers — this is the
	// disabled mode the instrumented tiers rely on.
	var c *Counter
	c.Add(1)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter load")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge load")
	}
	var sc *StripedCounter
	sc.Add(9, 5)
	if sc.Load() != 0 {
		t.Fatal("nil striped load")
	}
	var h *Histogram
	h.Observe(100)
	h.ObserveSince(time.Now())
	var r *Registry
	if r.Counter("a") != nil || r.Gauge("b") != nil || r.Histogram("c") != nil || r.Striped("d") != nil {
		t.Fatal("nil registry must return nil handles")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var tr *Trace
	tr.add("x", time.Second)
	tr.finish(time.Second)
	_ = tr.String()
	var sp Span
	sp.Mark("stage", nil) // unarmed span: no-op
	sp.Finish(nil)
	var nsp *Span
	nsp.Start()
	nsp.StartTraced(nil)
	nsp.Mark("stage", nil)
	nsp.Finish(nil)
}

func TestStripedCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	sc := r.Striped("ops")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(hint uint32) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sc.Add(hint, 1)
			}
		}(uint32(w))
	}
	wg.Wait()
	if got := sc.Load(); got != workers*perWorker {
		t.Fatalf("striped total = %d, want %d", got, workers*perWorker)
	}
	if snap := r.Snapshot(); snap.Counters["ops"] != workers*perWorker {
		t.Fatalf("snapshot striped = %d", snap.Counters["ops"])
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	// Bucket index must be monotone in the value and the upper bound must
	// actually bound every value mapped into the bucket.
	prev := -1
	for _, v := range []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1000, 4095, 4096, 1 << 20, 1 << 30, 1 << 40, 1 << 50} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d)=%d < previous %d", v, idx, prev)
		}
		prev = idx
		if idx < histBuckets-1 && v >= bucketUpper(idx) {
			t.Fatalf("value %d >= upper bound %d of its bucket %d", v, bucketUpper(idx), idx)
		}
	}
	// Relative error of the bucket upper bound stays within 1/histSub.
	for v := int64(histSub); v < 1<<30; v = v*5/4 + 1 {
		up := bucketUpper(bucketIndex(v))
		if up < v {
			t.Fatalf("upper bound %d below value %d", up, v)
		}
		if float64(up-v) > float64(v)/float64(histSub)+1 {
			t.Fatalf("bucket error too large: v=%d upper=%d", v, up)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1µs .. 1ms
	}
	s := h.snap()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != 1000000 {
		t.Fatalf("max = %d", s.Max)
	}
	p50 := s.Quantile(0.50)
	if p50 < 400000 || p50 > 650000 {
		t.Fatalf("p50 = %d, want ~500000", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 900000 || p99 > 1000000 {
		t.Fatalf("p99 = %d, want ~990000 (<= max)", p99)
	}
	if q := s.Quantile(1.0); q > s.Max {
		t.Fatalf("p100 %d beyond max %d", q, s.Max)
	}
	if m := s.Mean(); m < 450000 || m > 550000 {
		t.Fatalf("mean = %d", m)
	}
	var empty HistSnap
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty snap quantile/mean must be 0")
	}
}

func TestSnapshotDiffAndFlatten(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(10)
	r.Gauge("g").Set(3)
	h := r.Histogram("lat")
	h.Observe(1000)
	h.Observe(2000)

	before := r.Snapshot()
	r.Counter("a").Add(5)
	r.Gauge("g").Set(9)
	h.Observe(3000)
	after := r.Snapshot()

	d := after.Diff(before)
	if d.Counters["a"] != 5 {
		t.Fatalf("diff counter = %d, want 5", d.Counters["a"])
	}
	if d.Gauges["g"] != 9 {
		t.Fatalf("diff gauge = %d, want current value 9", d.Gauges["g"])
	}
	hd := d.Histograms["lat"]
	if hd.Count != 1 || hd.Sum != 3000 {
		t.Fatalf("diff hist count=%d sum=%d, want 1/3000", hd.Count, hd.Sum)
	}

	flat := after.Flatten()
	for _, key := range []string{"a", "g", "lat_count", "lat_sum_ns", "lat_avg_ns", "lat_p50_ns", "lat_p99_ns", "lat_max_ns"} {
		if _, ok := flat[key]; !ok {
			t.Fatalf("flatten missing key %q", key)
		}
	}
	if flat["lat_count"] != 3 || flat["lat_sum_ns"] != 6000 || flat["lat_max_ns"] != 3000 {
		t.Fatalf("flatten hist values wrong: %v", flat)
	}
	keys := after.Keys()
	if len(keys) != len(flat) {
		t.Fatalf("Keys() size mismatch")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("Keys() not sorted")
		}
	}
}

func TestSpanAndTrace(t *testing.T) {
	r := NewRegistry()
	hA := r.Histogram("stage_a")
	hB := r.Histogram("stage_b")
	hT := r.Histogram("total")

	// The trace rides a context; a context without one yields the nil
	// (no-op) trace without allocating.
	tr := NewTrace("discover")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom did not return the carried trace")
	}
	bare := context.Background()
	if TraceFrom(bare) != nil {
		t.Fatal("TraceFrom invented a trace")
	}
	if a := testing.AllocsPerRun(100, func() { _ = TraceFrom(bare) }); a != 0 {
		t.Fatalf("TraceFrom allocates %v times without a trace", a)
	}
	var sp Span
	sp.StartTraced(TraceFrom(ctx))
	time.Sleep(2 * time.Millisecond)
	sp.Mark("a", hA)
	time.Sleep(1 * time.Millisecond)
	sp.Mark("b", hB)
	sp.Finish(hT)

	sa, sb, st := hA.snap(), hB.snap(), hT.snap()
	if sa.Count != 1 || sb.Count != 1 || st.Count != 1 {
		t.Fatalf("stage counts: %d %d %d", sa.Count, sb.Count, st.Count)
	}
	if sa.Sum < int64(2*time.Millisecond) {
		t.Fatalf("stage a too short: %d", sa.Sum)
	}
	if st.Sum < sa.Sum+sb.Sum-int64(time.Millisecond) {
		t.Fatalf("total %d shorter than stages %d+%d", st.Sum, sa.Sum, sb.Sum)
	}
	if len(tr.Stages) != 2 || tr.Stages[0].Name != "a" || tr.Stages[1].Name != "b" {
		t.Fatalf("trace stages: %+v", tr.Stages)
	}
	if tr.Total <= 0 {
		t.Fatal("trace total not set")
	}
	if s := tr.String(); s == "" {
		t.Fatal("trace string empty")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < per; i++ {
				h.Observe(base + i)
			}
		}(int64(w) * 1000)
	}
	wg.Wait()
	s := h.snap()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var sum int64
	for _, c := range s.Buckets {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := &Counter{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkStripedAdd(b *testing.B) {
	c := &StripedCounter{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(3, 1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) & 0xfffff)
	}
}
