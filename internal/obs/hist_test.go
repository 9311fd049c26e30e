package obs

import (
	"math"
	"strings"
	"testing"
)

func TestHistBucketing(t *testing.T) {
	cases := []struct {
		v    int64
		want int // bucket index: smallest i with v <= 1<<i
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3},
		{9, 4}, {1024, 10}, {1025, 11}, {1 << 19, HistBuckets - 1},
		{1<<19 + 1, HistBuckets}, {math.MaxInt64, HistBuckets},
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.v)
		if h.counts[c.want] != 1 {
			t.Errorf("Observe(%d): bucket %d not incremented (counts=%v)", c.v, c.want, h.counts)
		}
	}
}

func TestHistCountSumMerge(t *testing.T) {
	var a, b Hist
	for i := int64(1); i <= 100; i++ {
		a.Observe(i)
	}
	b.Observe(7)
	b.Observe(1 << 30) // overflow bucket
	a.Merge(&b)
	if got := a.Count(); got != 102 {
		t.Errorf("Count = %d, want 102", got)
	}
	if got := a.Sum(); got != 5050+7+1<<30 {
		t.Errorf("Sum = %d, want %d", got, 5050+7+1<<30)
	}
}

// TestHistRegistryRoundTrip registers a histogram, snapshots it, and checks
// the Prometheus exposition: one `# TYPE <base> histogram` line, cumulative
// buckets ending at +Inf, and _sum/_count series.
func TestHistRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	var h Hist
	r.Histogram("ws_test_latency_cycles", &h)
	for _, v := range []int64{1, 3, 3, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()

	if got := snap.Get(`ws_test_latency_cycles_bucket{le="1"}`); got != 1 {
		t.Errorf(`bucket le=1 = %g, want 1`, got)
	}
	if got := snap.Get(`ws_test_latency_cycles_bucket{le="4"}`); got != 3 {
		t.Errorf(`bucket le=4 = %g, want 3 (cumulative)`, got)
	}
	if got := snap.Get(`ws_test_latency_cycles_bucket{le="+Inf"}`); got != 4 {
		t.Errorf(`bucket le=+Inf = %g, want 4`, got)
	}
	if got := snap.Get("ws_test_latency_cycles_count"); got != 4 {
		t.Errorf("count = %g, want 4", got)
	}
	if got := snap.Get("ws_test_latency_cycles_sum"); got != 107 {
		t.Errorf("sum = %g, want 107", got)
	}

	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "# TYPE ws_test_latency_cycles histogram") {
		t.Errorf("missing histogram TYPE line:\n%s", text)
	}
	if strings.Contains(text, "# TYPE ws_test_latency_cycles_bucket") {
		t.Errorf("bucket series must not declare its own TYPE:\n%s", text)
	}
}

func TestHistDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	var h Hist
	r.Histogram("dup", &h)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Histogram registration did not panic")
		}
	}()
	r.Histogram("dup", &h)
}

// TestHistWindowQuantiles verifies the window diff: only the observations
// after the earlier copy contribute, and quantiles interpolate within
// their bucket.
func TestHistWindowQuantiles(t *testing.T) {
	var h Hist
	h.Observe(1000) // before the window: must not appear in the diff
	prev := h

	// 100 observations uniformly placed in bucket (8, 16].
	for i := 0; i < 100; i++ {
		h.Observe(12)
	}

	hw := h.Since(&prev)
	if got := hw.Count(); got != 100 {
		t.Fatalf("window count = %g, want 100", got)
	}
	if got := hw.Mean(); got != 12 {
		t.Errorf("window mean = %g, want 12", got)
	}
	// All mass in one bucket: quantiles interpolate linearly over (8, 16].
	if got := hw.Quantile(0.5); got != 12 {
		t.Errorf("p50 = %g, want 12", got)
	}
	if got := hw.Quantile(1); got != 16 {
		t.Errorf("p100 = %g, want 16", got)
	}

	// Empty window.
	empty := h.Since(&h)
	if empty.Count() != 0 || empty.Quantile(0.99) != 0 {
		t.Errorf("empty window: count=%g q99=%g, want 0/0", empty.Count(), empty.Quantile(0.99))
	}
}

// TestHistWindowOverflow pins the overflow-bucket convention: quantiles in
// +Inf report the largest finite bound.
func TestHistWindowOverflow(t *testing.T) {
	var h Hist
	h.Observe(1 << 40)
	hw := h.Since(&Hist{})
	if got, want := hw.Quantile(0.5), float64(HistBound(HistBuckets-1)); got != want {
		t.Errorf("overflow quantile = %g, want %g", got, want)
	}
}
