package runlog

import "warpedslicer/internal/obs"

// DefaultMaxPoints bounds a recorded series. Even by construction: the
// downsampler merges adjacent point pairs, so an even capacity always
// halves cleanly.
const DefaultMaxPoints = 128

// DefaultSeries is the counter set recorded into run records: the
// device-wide issue/stall composition and the scheduler fast-path and
// fast-forward opportunity meters. All are label-free device aggregates,
// read without a registry snapshot (gpu.DeviceCounters), so the series
// stays small and its column order is fixed here, not derived from a map.
func DefaultSeries() []string {
	return []string{
		"ws_sm_issued_total",
		"ws_sm_stall_mem_total",
		"ws_sm_stall_raw_total",
		"ws_sm_stall_exec_total",
		"ws_sm_stall_ibuf_total",
		"ws_sm_stall_idle_total",
		"ws_sm_sched_fastpath_total",
		"ws_gpu_ff_skippable_cycles_total",
	}
}

// SeriesPoint is one aggregated window: the cycle at the window's end
// and the counter deltas accumulated over it, parallel to Series.Names.
type SeriesPoint struct {
	Cycle  int64     `json:"cycle"`
	Values []float64 `json:"values"`
}

// Series is the bounded per-window time series stored in a RunRecord.
// Names and each point's Values are parallel slices — explicit order,
// no map — and WindowsPerPoint reports the downsampling factor the run
// ended at (1 when the series never hit capacity).
type Series struct {
	Names           []string      `json:"names"`
	WindowsPerPoint int           `json:"windows_per_point"`
	Downsamples     int           `json:"downsamples"`
	Points          []SeriesPoint `json:"points"`
}

// Recorder accumulates counter diffs into a fixed-size, deterministically
// downsampled Series. It is driven from the GPU's Monitor hook: each
// Record diffs the named counters' current values against the previous
// ones (one window), windows accumulate until the current
// windows-per-point factor is reached, and when the series hits capacity
// adjacent points merge pairwise and the factor doubles. The resulting
// series depends only on the value sequence, never on wall time or
// goroutine interleaving. Point storage is sized once, so recording
// allocates nothing.
type Recorder struct {
	names  []string
	max    int
	factor int
	points []SeriesPoint
	// store backs every point's Values: point i owns store[i*n:(i+1)*n]
	// for n names.
	store []float64

	prev     []float64
	havePrev bool
	acc      []float64
	accN     int
	// cur is Observe's scratch: a snapshot's values in names order.
	cur []float64

	// ws_runlog_* counters (registered via Register in obs.go).
	pointsTotal      uint64
	downsamplesTotal uint64
	windowsTotal     uint64
}

// NewRecorder builds a recorder over the named counters with the given
// point capacity (<= 0 selects DefaultMaxPoints; odd capacities round up
// so pair-merging always halves cleanly).
func NewRecorder(names []string, maxPoints int) *Recorder {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	if maxPoints%2 != 0 {
		maxPoints++
	}
	n := len(names)
	return &Recorder{
		names:  append([]string(nil), names...),
		max:    maxPoints,
		factor: 1,
		points: make([]SeriesPoint, 0, maxPoints),
		store:  make([]float64, maxPoints*n),
		prev:   make([]float64, n),
		acc:    make([]float64, n),
		cur:    make([]float64, n),
	}
}

// Observe ingests one monitor firing as a registry snapshot: it reads the
// named counters out of snap (absent ones read as 0) and records them.
func (r *Recorder) Observe(cycle int64, snap *obs.Snapshot) {
	if r == nil || snap == nil {
		return
	}
	for i, name := range r.names {
		r.cur[i] = snap.Get(name)
	}
	r.Record(cycle, r.cur)
}

// Record ingests one monitor firing: vals holds each named counter's
// current value, parallel to the recorder's names. The first call
// establishes the baseline; every later call closes one window of counter
// deltas.
func (r *Recorder) Record(cycle int64, vals []float64) {
	if r == nil {
		return
	}
	if !r.havePrev {
		copy(r.prev, vals)
		r.havePrev = true
		return
	}
	for i, v := range vals[:len(r.acc)] {
		r.acc[i] += v - r.prev[i]
	}
	copy(r.prev, vals)
	r.accN++
	r.windowsTotal++
	if r.accN < r.factor {
		return
	}
	pt := r.slot(len(r.points))
	copy(pt, r.acc)
	r.points = append(r.points, SeriesPoint{Cycle: cycle, Values: pt})
	r.pointsTotal++
	clear(r.acc)
	r.accN = 0
	if len(r.points) >= r.max {
		r.downsample()
	}
}

// slot returns point i's value storage.
func (r *Recorder) slot(i int) []float64 {
	n := len(r.acc)
	return r.store[i*n : (i+1)*n : (i+1)*n]
}

// downsample merges adjacent point pairs in place and doubles the
// windows-per-point factor. Capacity is even, so the merge is exact. Pair
// j lands in slot j, which no later pair reads.
func (r *Recorder) downsample() {
	half := r.points[:0]
	for i := 0; i+1 < len(r.points); i += 2 {
		a, b := r.points[i], r.points[i+1]
		vals := r.slot(i / 2)
		for j := range vals {
			vals[j] = b.Values[j] + a.Values[j]
		}
		half = append(half, SeriesPoint{Cycle: b.Cycle, Values: vals})
	}
	r.points = half
	r.factor *= 2
	r.downsamplesTotal++
}

// Series snapshots the recorded series. The returned value owns copies
// of the points, so a record outlives its recorder.
func (r *Recorder) Series() *Series {
	if r == nil || len(r.points) == 0 {
		return nil
	}
	pts := make([]SeriesPoint, len(r.points))
	for i, p := range r.points {
		pts[i] = SeriesPoint{Cycle: p.Cycle, Values: append([]float64(nil), p.Values...)}
	}
	return &Series{
		Names:           append([]string(nil), r.names...),
		WindowsPerPoint: r.factor,
		Downsamples:     int(r.downsamplesTotal),
		Points:          pts,
	}
}
