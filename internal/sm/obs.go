package sm

import (
	"strconv"

	"warpedslicer/internal/cache"
	"warpedslicer/internal/obs"
)

// Series holds the series names of one Stats counter set under one label
// set: the SM-wide counters, each kernel slot's counters with a "kernel"
// label appended, and the L1 block under "cache","l1". Collectors build
// it once at registration and pass it to EmitObs on every snapshot.
type Series struct {
	sm     []string
	kernel [MaxKernels][]string
	l1     []string
}

// NewSeries builds the series names for the given labels: "sm","<i>" per
// SM, none for the device-wide aggregate.
func NewSeries(kv ...string) *Series {
	s := &Series{
		sm: obs.LabelAll(statsNames[:], kv...),
		l1: cache.Series(append([]string{"cache", "l1"}, kv...)...),
	}
	for k := range s.kernel {
		kl := append(append([]string(nil), kv...), "kernel", strconv.Itoa(k))
		s.kernel[k] = obs.LabelAll(kernelStatsNames[:], kl...)
	}
	return s
}

// EmitObs publishes the counter set through an obs collector callback
// under names. The GPU uses it both per SM and for the device-wide
// aggregate. Summing one per-kernel stall class over the kernel slots
// reproduces the matching SM-wide ws_sm_stall_* counter.
func (st *Stats) EmitObs(emit obs.Emit, names *Series) {
	for i, v := range st.fields() {
		emit(names.sm[i], obs.Counter, float64(*v))
	}
	for k := range st.PerKernel {
		for i, v := range st.PerKernel[k].fields() {
			emit(names.kernel[k][i], obs.Counter, float64(*v))
		}
	}
	st.L1.EmitObs(emit, names.l1)
}

// Register wires this SM's live counters into the registry: the scheduler
// and stall counters, L1 activity, and per-kernel resident occupancy (the
// series that makes profiling layouts and repartitions visible live).
func (s *SM) Register(r *obs.Registry) {
	id := strconv.Itoa(s.ID)
	names := NewSeries("sm", id)
	var resident [MaxKernels]string
	for k := range resident {
		resident[k] = obs.Label("ws_sm_ctas_resident", "sm", id, "kernel", strconv.Itoa(k))
	}
	r.Collector(func(emit obs.Emit) {
		st := s.Stats()
		st.EmitObs(emit, names)
		for k, name := range resident {
			emit(name, obs.Gauge, float64(s.kUsed[k].CTAs))
		}
	})
}

// StatsCounter returns the position of the named SM-wide counter
// (ws_sm_*_total, label-free) in the Stats field list, for reading it
// with Stats.Counter without a registry.
func StatsCounter(name string) (int, bool) {
	for i, n := range statsNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Counter returns the value of the Stats field-list counter at position
// i (see StatsCounter).
func (st *Stats) Counter(i int) uint64 { return *st.fields()[i] }
