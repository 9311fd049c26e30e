package experiments

import (
	"fmt"
	"strings"

	"warpedslicer/internal/metrics"
)

// Figure8 runs the 15 three-kernel workloads under Spatial, Even and
// Dynamic, normalized to Left-Over (oracle search over 3-kernel spaces is
// optional; the paper's Figure 8 omits it too).
func Figure8(s *Session) []Figure6Row {
	return Figure6From(s, Triples(), false)
}

// FormatFigure8 renders the three-kernel results.
func FormatFigure8(rows []Figure6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %8s %8s %8s  %s\n",
		"Workload", "LO(IPC)", "Spatial", "Even", "Dynamic", "Dyn partition")
	for _, r := range rows {
		part := "spatial"
		if !r.ChoseSpatial && r.Partition != nil {
			part = fmt.Sprint(r.Partition)
		}
		fmt.Fprintf(&b, "%-16s %9.1f %8.2f %8.2f %8.2f  %s\n",
			r.Workload, r.LeftOverIPC, r.Spatial, r.Even, r.Dynamic, part)
	}
	g := SummarizeFigure6(rows)
	fmt.Fprintf(&b, "%-16s %9s %8.2f %8.2f %8.2f\n", "GMEAN", "", g.Spatial, g.Even, g.Dynamic)
	return b.String()
}

// Figure9Row reports the fairness metrics for one policy (Figure 9):
// minimum speedup (normalized to Left-Over's) and average normalized
// turnaround time.
type Figure9Row struct {
	Policy string
	// MinSpeedup2/3: fairness for 2- and 3-kernel workloads, normalized
	// to the Left-Over policy's fairness.
	MinSpeedup2, MinSpeedup3 float64
	// ANTT2/3: absolute average normalized turnaround times.
	ANTT2, ANTT3 float64
}

// fairness computes per-run speedups vs isolation.
func (s *Session) fairness(r CoRun) []float64 {
	sp := make([]float64, len(r.Specs))
	for i, spec := range r.Specs {
		iso := s.Isolation(spec)
		if iso.IPC > 0 {
			sp[i] = r.PerKernelIPC[i] / iso.IPC
		}
	}
	return sp
}

// Figure9 computes fairness metrics from prior pair and triple runs.
func Figure9(s *Session, pairRows, tripleRows []Figure6Row) []Figure9Row {
	policies := []string{"leftover", "spatial", "even", "dynamic"}

	metric := func(rows []Figure6Row, p string) (minSp, antt float64) {
		var ms, at []float64
		for _, row := range rows {
			r, ok := row.Runs[p]
			if !ok {
				continue
			}
			sp := s.fairness(r)
			ms = append(ms, metrics.MinSpeedup(sp))
			at = append(at, metrics.ANTT(sp))
		}
		return metrics.Mean(ms), metrics.Mean(at)
	}

	base2, _ := metric(pairRows, "leftover")
	base3, _ := metric(tripleRows, "leftover")

	var out []Figure9Row
	for _, p := range policies {
		m2, a2 := metric(pairRows, p)
		m3, a3 := metric(tripleRows, p)
		row := Figure9Row{Policy: p, ANTT2: a2, ANTT3: a3}
		if base2 > 0 {
			row.MinSpeedup2 = m2 / base2
		}
		if base3 > 0 {
			row.MinSpeedup3 = m3 / base3
		}
		out = append(out, row)
	}
	return out
}

// FormatFigure9 renders the fairness table.
func FormatFigure9(rows []Figure9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s %8s %8s\n", "Policy", "Fair(2K)", "Fair(3K)", "ANTT2", "ANTT3")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.2f %12.2f %8.2f %8.2f\n",
			r.Policy, r.MinSpeedup2, r.MinSpeedup3, r.ANTT2, r.ANTT3)
	}
	return b.String()
}
