package experiments

import (
	"fmt"
	"strings"

	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/metrics"
	"warpedslicer/internal/sm"
)

// Figure5Row characterizes one benchmark's stability over time: per-window
// IPC and memory-stall fraction (φmem), compared with the first sampling
// window (Figure 5 argues a 5K-cycle sample represents the long run).
type Figure5Row struct {
	Abbr string
	// WindowIPC[i] and WindowPhiMem[i] are measured over consecutive
	// windows of WindowCycles.
	WindowCycles int64
	WindowIPC    []float64
	WindowPhiMem []float64
	// FirstWindowErr is |IPC(window 0) - IPC(rest)| / IPC(rest): how well
	// the profiling window predicts steady state.
	FirstWindowErr float64
}

// Figure5 samples each benchmark's IPC and φmem over consecutive 5K-cycle
// windows spanning a 10x longer run (the paper compared 5K vs 50K).
func Figure5(s *Session, windows int) []Figure5Row {
	if windows <= 1 {
		windows = 10
	}
	win := s.O.Sample
	if win <= 0 {
		win = 5000
	}
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
			a := g.AggregateSM()
			prevInsts, prevMem, prevSlots := totalThreadInsts(a), a.StallMem, a.Slots
			for w := 0; w < windows; w++ {
				g.RunCycles(win)
				a = g.AggregateSM()
				insts, mem, slots := totalThreadInsts(a), a.StallMem, a.Slots
				row.WindowIPC = append(row.WindowIPC, float64(insts-prevInsts)/float64(win))
				row.WindowPhiMem = append(row.WindowPhiMem, metrics.Frac(mem-prevMem, slots-prevSlots))
				prevInsts, prevMem, prevSlots = insts, mem, slots
			}
		}, params: map[string]int64{"windows": int64(windows)}})

		rest := metrics.Mean(row.WindowIPC[1:])
		if rest > 0 {
			err := row.WindowIPC[0]/rest - 1
			if err < 0 {
				err = -err
			}
			row.FirstWindowErr = err
		}
		rows[idx] = row
	})
	return rows
}

func totalThreadInsts(a sm.Stats) uint64 {
	var t uint64
	for _, k := range a.PerKernel {
		t += k.ThreadInsts
	}
	return t
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
