package experiments

import (
	"fmt"
	"strings"

	"warpedslicer/internal/metrics"
	"warpedslicer/internal/sm"
)

// Figure10aRow reports sensitivity of the dynamic policy to one profiling
// parameter setting, as mean IPC normalized to the reference setting
// (5K-cycle sampling, no algorithm delay).
type Figure10aRow struct {
	Label string
	Norm  float64
}

// Figure10a sweeps the sampling-window length and the partitioning-
// algorithm delay over the given workloads (paper: all 30 pairs; IPC
// varies by at most ~2%).
func Figure10a(o Options, ws []Workload) []Figure10aRow {
	type setting struct {
		label     string
		sample    int64
		delay     int64
		scaleOff  bool
		symmetric bool
	}
	settings := []setting{
		{label: "sample=5k", sample: 5000},
		{label: "sample=10k", sample: 10000},
		{label: "sample=CTA", sample: 50000},
		{label: "delay=1k", sample: 5000, delay: 1000},
		{label: "delay=5k", sample: 5000, delay: 5000},
		{label: "delay=10k", sample: 5000, delay: 10000},
		// Ablations of the Eq. 3-4 correction (DESIGN.md §5).
		{label: "scale=off", sample: 5000, scaleOff: true},
		{label: "scale=sym", sample: 5000, symmetric: true},
	}
	ref := make([]float64, len(ws))
	{
		oo := o
		oo.Sample, oo.AlgDelay = 5000, 0
		s := NewSession(oo)
		s.parallelFor(len(ws), func(i int) {
			ref[i] = s.CoRun(ws[i].Specs, "dynamic").IPC
		})
	}
	// Each setting owns a session (its windows change the simulations), so
	// the whole settings sweep fans across the pool; rows land by index.
	out := make([]Figure10aRow, len(settings))
	parallelFor(o.parallelism(), len(settings), func(si int) {
		st := settings[si]
		oo := o
		oo.Sample, oo.AlgDelay = st.sample, st.delay
		if st.scaleOff {
			oo.UseScaledIPC = false
		}
		oo.SymmetricScaling = st.symmetric
		s := NewSession(oo)
		ipcs := make([]float64, len(ws))
		s.parallelFor(len(ws), func(i int) {
			ipcs[i] = s.CoRun(ws[i].Specs, "dynamic").IPC
		})
		var norms []float64
		for i := range ws {
			if ref[i] > 0 {
				norms = append(norms, ipcs[i]/ref[i])
			}
		}
		out[si] = Figure10aRow{Label: st.label, Norm: metrics.Gmean(norms)}
	})
	return out
}

// Figure10bRow reports policy gains under one warp scheduler.
type Figure10bRow struct {
	Scheduler string
	Gmeans    Gmeans
}

// Figure10b evaluates the policies under GTO and round-robin scheduling.
// Each scheduler's sweep is already parallel (Figure6From); the two
// sessions run in sequence so nested fan-out stays bounded.
func Figure10b(o Options, ws []Workload) []Figure10bRow {
	var out []Figure10bRow
	for _, sched := range []sm.SchedulerKind{sm.GTO, sm.RR} {
		oo := o
		oo.Sched = sched
		s := NewSession(oo)
		rows := Figure6From(s, ws, false)
		out = append(out, Figure10bRow{Scheduler: sched.String(), Gmeans: SummarizeFigure6(rows)})
	}
	return out
}

// FormatFigure10 renders both sensitivity panels.
func FormatFigure10(a []Figure10aRow, b []Figure10bRow) string {
	var sb strings.Builder
	sb.WriteString("(a) Profiling-parameter sensitivity (dynamic IPC vs 5k/no-delay):\n")
	for _, r := range a {
		fmt.Fprintf(&sb, "  %-12s %.3f\n", r.Label, r.Norm)
	}
	sb.WriteString("(b) Warp-scheduler sensitivity (normalized IPC gmeans):\n")
	for _, r := range b {
		fmt.Fprintf(&sb, "  %-4s spatial=%.2f even=%.2f dynamic=%.2f\n",
			r.Scheduler, r.Gmeans.Spatial, r.Gmeans.Even, r.Gmeans.Dynamic)
	}
	return sb.String()
}

// BigSMResult is the §V-H large-SM sensitivity study.
type BigSMResult struct {
	// PerfNorm is Warped-Slicer's gmean IPC normalized to Left-Over.
	PerfNorm float64
	// FairnessNorm is the mean minimum-speedup ratio vs Left-Over.
	FairnessNorm float64
}

// BigSM evaluates Warped-Slicer on the 256KB-RF / 96KB-shm / 32-CTA /
// 64-warp configuration of §V-H.
func BigSM(o Options, ws []Workload) BigSMResult {
	s := NewSession(o)
	los := make([]CoRun, len(ws))
	dys := make([]CoRun, len(ws))
	s.parallelFor(len(ws), func(i int) {
		los[i] = s.CoRun(ws[i].Specs, "leftover")
		dys[i] = s.CoRun(ws[i].Specs, "dynamic")
	})
	var perf, fair []float64
	for i := range ws {
		lo, dy := los[i], dys[i]
		if lo.IPC > 0 {
			perf = append(perf, dy.IPC/lo.IPC)
		}
		fl := metrics.MinSpeedup(s.fairness(lo))
		fd := metrics.MinSpeedup(s.fairness(dy))
		if fl > 0 {
			fair = append(fair, fd/fl)
		}
	}
	return BigSMResult{PerfNorm: metrics.Gmean(perf), FairnessNorm: metrics.Mean(fair)}
}

// FormatBigSM renders the §V-H result.
func FormatBigSM(r BigSMResult) string {
	return fmt.Sprintf("Large SM (256KB RF, 96KB shm, 32 CTAs, 64 warps): Dynamic vs Left-Over: perf %.2fx, fairness %.2fx\n",
		r.PerfNorm, r.FairnessNorm)
}
