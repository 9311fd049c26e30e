package obs

import (
	"strconv"
)

// HistBuckets is the number of finite histogram buckets. Bucket i counts
// observations v with v <= 1<<i (so the finite upper bounds are the powers
// of two 1, 2, 4, ..., 2^(HistBuckets-1)); everything larger lands in the
// +Inf overflow bucket. Power-of-two bucketing keeps Observe at one
// bit-length instruction and covers the full latency range of the
// simulator — an L1 hit (tens of cycles) up to a congested DRAM round trip
// (hundreds of thousands) — with constant relative resolution.
const HistBuckets = 20

// Hist is a fixed-bucket latency histogram owned by a model layer. It is
// the registry's third metric kind: the owner calls Observe on its hot
// path (O(1), allocation-free), and the registry pulls the bucket state
// only when a Snapshot is taken, exactly like Counter and Gauge sources.
// Buckets are monotonic counters, so the diff of two copies of a Hist is
// a per-window histogram (see Hist.Since).
//
// The zero value is ready to use. Hist is not synchronized: like every
// other simulator counter it must be owned by one simulation goroutine.
type Hist struct {
	counts [HistBuckets + 1]uint64
	sum    uint64
}

// histBucket returns the bucket index for an observation: the smallest i
// with v <= 1<<i, or the overflow bucket.
func histBucket(v int64) int {
	if v <= 1 {
		return 0
	}
	// bits.Len64(v-1) without the import: count the bit length of v-1.
	u := uint64(v - 1)
	i := 0
	for u > 0 {
		u >>= 1
		i++
	}
	if i >= HistBuckets {
		return HistBuckets
	}
	return i
}

// Observe records one value. Negative values clamp to zero (they indicate
// a caller bug but must not corrupt bucket state).
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.sum += uint64(v)
}

// Count returns the total number of observations.
func (h *Hist) Count() uint64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Hist) Sum() uint64 { return h.sum }

// Merge adds o's observations into h (used to aggregate per-instance
// histograms, e.g. per-channel DRAM service times, into one series).
func (h *Hist) Merge(o *Hist) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.sum += o.sum
}

// HistBound returns bucket i's finite upper bound.
func HistBound(i int) uint64 { return 1 << uint(i) }

// histLe returns the `le` label value for bucket i.
func histLe(i int) string {
	if i >= HistBuckets {
		return "+Inf"
	}
	return strconv.FormatUint(HistBound(i), 10)
}

// HistSeries holds one histogram's series names under one label set:
// cumulative <name>_bucket{...,le="..."} names plus <name>_sum and
// <name>_count, with the `le` label last. Collectors build it once at
// registration, so taking a snapshot formats no labels.
type HistSeries struct {
	bucket     [HistBuckets + 1]string
	sum, count string
}

// NewHistSeries builds the series names of the histogram name under the
// labels kv.
func NewHistSeries(name string, kv ...string) *HistSeries {
	hs := &HistSeries{
		sum:   Label(name+"_sum", kv...),
		count: Label(name+"_count", kv...),
	}
	lbl := append(append([]string(nil), kv...), "le", "")
	for i := range hs.bucket {
		lbl[len(lbl)-1] = histLe(i)
		hs.bucket[i] = Label(name+"_bucket", lbl...)
	}
	return hs
}

// Emit publishes the histogram in Prometheus form under names: the
// cumulative buckets, the sum and the count, all of kind Histogram.
func (h *Hist) Emit(emit Emit, names *HistSeries) {
	var cum uint64
	for i, name := range names.bucket {
		cum += h.counts[i]
		emit(name, Histogram, float64(cum))
	}
	emit(names.sum, Histogram, float64(h.sum))
	emit(names.count, Histogram, float64(cum))
}

// Histogram registers a histogram source under the given base name. The
// registry reads the live bucket state at every Snapshot; the name is
// reserved like any other metric so two layers cannot fight over one
// series.
func (r *Registry) Histogram(name string, h *Hist) {
	r.mu.Lock()
	if _, dup := r.names[name]; dup {
		r.mu.Unlock()
		panic("obs: duplicate metric " + strconv.Quote(name))
	}
	r.names[name] = struct{}{}
	r.mu.Unlock()
	names := NewHistSeries(name)
	r.Collector(func(emit Emit) { h.Emit(emit, names) })
}

// HistWindow is the windowed view of one histogram: the per-bucket counts
// accumulated between two reads of it (see Hist.Since). Quantiles are
// computed by linear interpolation inside the containing bucket, the same
// estimate Prometheus's histogram_quantile uses.
type HistWindow struct {
	// Counts[i] is the (non-cumulative) observation count of bucket i;
	// the last entry is the +Inf overflow bucket.
	Counts [HistBuckets + 1]float64
	// Sum is the windowed value sum.
	Sum float64
}

// Since returns the window of observations h gained after prev, an
// earlier copy of the same histogram.
func (h *Hist) Since(prev *Hist) HistWindow {
	var hw HistWindow
	for i, c := range h.counts {
		hw.Counts[i] = float64(c - prev.counts[i])
	}
	hw.Sum = float64(h.sum - prev.sum)
	return hw
}

// Count returns the window's total observation count.
func (hw HistWindow) Count() float64 {
	n := 0.0
	for _, c := range hw.Counts {
		n += c
	}
	return n
}

// Mean returns the window's mean observed value (0 when empty).
func (hw HistWindow) Mean() float64 {
	n := hw.Count()
	if n == 0 {
		return 0
	}
	return hw.Sum / n
}

// Quantile estimates the q-quantile (q in [0,1]) of the window by linear
// interpolation within the containing bucket. An empty window reports 0;
// quantiles that land in the overflow bucket report the largest finite
// bound (a deliberate underestimate, mirroring histogram_quantile).
func (hw HistWindow) Quantile(q float64) float64 {
	total := hw.Count()
	if total == 0 {
		return 0
	}
	target := min(max(q, 0), 1) * total
	cum := 0.0
	for i := 0; i <= HistBuckets; i++ {
		if hw.Counts[i] > 0 && cum+hw.Counts[i] >= target {
			if i >= HistBuckets {
				return float64(HistBound(HistBuckets - 1))
			}
			lo := 0.0
			if i > 0 {
				lo = float64(HistBound(i - 1))
			}
			hi := float64(HistBound(i))
			frac := (target - cum) / hw.Counts[i]
			return lo + frac*(hi-lo)
		}
		cum += hw.Counts[i]
	}
	return float64(HistBound(HistBuckets - 1))
}
