package experiments

import (
	"fmt"
	"math"
	"strings"

	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/metrics"
	"warpedslicer/internal/trace"
)

// Figure5Row characterizes one benchmark's stability over time: per-window
// IPC and memory-stall fraction (φmem), compared with the first sampling
// window (Figure 5 argues a 5K-cycle sample represents the long run).
type Figure5Row struct {
	Abbr string
	// WindowIPC[i] and WindowPhiMem[i] are measured over consecutive
	// windows of WindowCycles, until the kernel drains.
	WindowCycles int64
	WindowIPC    []float64
	WindowPhiMem []float64
	// FirstWindowErr is |IPC(window 0) - IPC(rest)| / IPC(rest): how well
	// the profiling window predicts steady state.
	FirstWindowErr float64
}

// Figure5 samples each benchmark's IPC and φmem over consecutive 5K-cycle
// windows spanning a 10x longer run (the paper compared 5K vs 50K): a
// trace.Timeline of Sample-cycle windows, started after warm-up.
func Figure5(s *Session, windows int) []Figure5Row {
	if windows <= 1 {
		windows = 10
	}
	win := s.O.Sample
	suite := kernels.Suite()
	rows := make([]Figure5Row, len(suite))
	// Each benchmark's windowed trace is an independent simulation; fan
	// them across the worker pool and collect rows by index.
	s.parallelFor(len(suite), func(idx int) {
		spec := suite[idx]
		row := Figure5Row{Abbr: spec.Abbr, WindowCycles: win}
		s.simulate(run{kind: "fig5", policy: "greedy", specs: []*kernels.Spec{spec}, drive: func(g *gpu.GPU) {
			// Discard the cold-start window so the comparison mirrors the
			// controller (which warms up before sampling).
			g.RunCycles(s.O.Warmup)
			tl := trace.New(win)
			tl.Run(g, int64(windows)*win)
			for _, p := range tl.Points {
				row.WindowIPC = append(row.WindowIPC, p.KernelIPC[0])
				row.WindowPhiMem = append(row.WindowPhiMem, p.StallMem)
			}
		}, params: map[string]int64{"windows": int64(windows)}})

		row.FirstWindowErr = firstWindowErr(row.WindowIPC)
		rows[idx] = row
	})
	return rows
}

// firstWindowErr is |ipc[0] - mean(ipc[1:])| / mean(ipc[1:]), or 0 when
// there are fewer than two windows (a kernel that drains ends its
// timeline early, in warm-up even before the first window) or no IPC
// after the first.
func firstWindowErr(ipc []float64) float64 {
	if len(ipc) < 2 {
		return 0
	}
	rest := metrics.Mean(ipc[1:])
	if rest <= 0 {
		return 0
	}
	return math.Abs(ipc[0]/rest - 1)
}

// FormatFigure5 renders per-window IPC and φmem plus the first-window
// prediction error.
func FormatFigure5(rows []Figure5Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s IPC/%dk:", r.Abbr, r.WindowCycles/1000)
		for _, v := range r.WindowIPC {
			fmt.Fprintf(&b, " %6.1f", v)
		}
		fmt.Fprintf(&b, "  (first-window err %.1f%%)\n", r.FirstWindowErr*100)
		fmt.Fprintf(&b, "     phiMem: ")
		for _, v := range r.WindowPhiMem {
			fmt.Fprintf(&b, " %6.2f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
