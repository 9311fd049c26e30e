package experiments

import (
	"fmt"
	"strings"

	"warpedslicer/internal/metrics"
)

// Figure6Row is one workload's normalized performance under each
// multiprogramming policy (Figure 6; baseline = Left-Over).
type Figure6Row struct {
	Workload string
	Category string
	// Absolute combined IPCs.
	LeftOverIPC float64
	// Normalized to Left-Over.
	Spatial, Even, Dynamic, Oracle float64
	// Partition chosen by the dynamic policy (nil = spatial fallback);
	// OraclePartition is the exhaustive-search winner, and
	// OracleChoseSpatial distinguishes "the oracle chose spatial
	// multitasking" (no partition by construction) from "no oracle run".
	Partition          []int
	ChoseSpatial       bool
	OraclePartition    []int
	OracleChoseSpatial bool
	// Raw runs for downstream experiments (Figure 7/9, energy).
	Runs map[string]CoRun
}

// Figure6 runs every pair under Left-Over, Spatial, Even, Dynamic and the
// Oracle, reporting IPC normalized to Left-Over.
func Figure6(s *Session, withOracle bool) []Figure6Row {
	return Figure6From(s, Pairs(), withOracle)
}

// Figure6From evaluates the policy set on a caller-chosen workload subset.
// Workloads are independent simulations, so the sweep fans across the
// session's worker pool; rows are collected by index, keeping the output
// identical to a serial sweep.
func Figure6From(s *Session, ws []Workload, withOracle bool) []Figure6Row {
	if len(ws) == 0 {
		return nil
	}
	rows := make([]Figure6Row, len(ws))
	s.parallelFor(len(ws), func(i int) {
		rows[i] = runWorkload(s, ws[i], withOracle)
	})
	return rows
}

// runWorkload evaluates one workload under every policy.
func runWorkload(s *Session, w Workload, withOracle bool) Figure6Row {
	row := Figure6Row{Workload: w.Name(), Category: w.Category, Runs: map[string]CoRun{}}

	lo := s.CoRun(w.Specs, "leftover")
	row.LeftOverIPC = lo.IPC
	row.Runs["leftover"] = lo

	for _, p := range []string{"spatial", "even", "dynamic"} {
		r := s.CoRun(w.Specs, p)
		row.Runs[p] = r
		norm := 0.0
		if lo.IPC > 0 {
			norm = r.IPC / lo.IPC
		}
		switch p {
		case "spatial":
			row.Spatial = norm
		case "even":
			row.Even = norm
		case "dynamic":
			row.Dynamic = norm
			row.Partition = r.Partition
			row.ChoseSpatial = r.ChoseSpatial
		}
	}
	if withOracle {
		or := s.Oracle(w.Specs)
		row.Runs["oracle"] = or
		if lo.IPC > 0 {
			row.Oracle = or.IPC / lo.IPC
		}
		row.OraclePartition = or.Partition
		row.OracleChoseSpatial = or.ChoseSpatial
		// The oracle is by construction at least as good as every
		// policy it subsumes.
		for _, v := range []float64{row.Spatial, row.Even, row.Dynamic} {
			if v > row.Oracle {
				row.Oracle = v
			}
		}
	}
	return row
}

// Gmeans summarizes normalized IPC per policy over rows.
type Gmeans struct {
	Spatial, Even, Dynamic, Oracle float64
}

// SummarizeFigure6 computes the geometric means of Figure 6.
func SummarizeFigure6(rows []Figure6Row) Gmeans {
	var sp, ev, dy, or []float64
	for _, r := range rows {
		sp = append(sp, r.Spatial)
		ev = append(ev, r.Even)
		dy = append(dy, r.Dynamic)
		if r.Oracle > 0 {
			or = append(or, r.Oracle)
		}
	}
	return Gmeans{
		Spatial: metrics.Gmean(sp),
		Even:    metrics.Gmean(ev),
		Dynamic: metrics.Gmean(dy),
		Oracle:  metrics.Gmean(or),
	}
}

// FormatFigure6 renders the normalized-IPC table with per-category and
// overall geometric means.
func FormatFigure6(rows []Figure6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-16s %9s %8s %8s %8s %8s\n",
		"Workload", "Category", "LO(IPC)", "Spatial", "Even", "Dynamic", "Oracle")
	byCat := map[string][]Figure6Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byCat[r.Category]; !ok {
			order = append(order, r.Category)
		}
		byCat[r.Category] = append(byCat[r.Category], r)
	}
	for _, cat := range order {
		for _, r := range byCat[cat] {
			fmt.Fprintf(&b, "%-18s %-16s %9.1f %8.2f %8.2f %8.2f %8.2f\n",
				r.Workload, r.Category, r.LeftOverIPC, r.Spatial, r.Even, r.Dynamic, r.Oracle)
		}
		g := SummarizeFigure6(byCat[cat])
		fmt.Fprintf(&b, "%-18s %-16s %9s %8.2f %8.2f %8.2f %8.2f\n",
			"GMEAN("+cat+")", "", "", g.Spatial, g.Even, g.Dynamic, g.Oracle)
	}
	g := SummarizeFigure6(rows)
	fmt.Fprintf(&b, "%-18s %-16s %9s %8.2f %8.2f %8.2f %8.2f\n",
		"GMEAN(ALL)", "", "", g.Spatial, g.Even, g.Dynamic, g.Oracle)
	return b.String()
}

// Table3Row shows the CTA partition chosen by Warped-Slicer vs Even.
type Table3Row struct {
	Workload string
	Category string
	// Dyn is the water-filling partition ("spatial" when the controller
	// fell back); Even is the even-split occupancy.
	Dyn  string
	Even string
}

// Table3 derives the partition table from Figure 6's dynamic runs.
func Table3(s *Session, rows []Figure6Row) []Table3Row {
	cfg := s.O.Cfg.SM
	var out []Table3Row
	pairs := Pairs()
	for i, r := range rows {
		if i >= len(pairs) {
			break
		}
		w := pairs[i]
		t := Table3Row{Workload: r.Workload, Category: r.Category}
		if r.ChoseSpatial || r.Partition == nil {
			t.Dyn = "spatial"
		} else {
			t.Dyn = fmt.Sprintf("(%d,%d)", r.Partition[0], r.Partition[1])
		}
		n := len(w.Specs)
		ev := make([]int, n)
		for j, spec := range w.Specs {
			ev[j] = spec.MaxCTAs(cfg.Registers/n, cfg.SharedMemBytes/n, cfg.MaxThreads/n, cfg.MaxCTAs/n)
		}
		t.Even = fmt.Sprintf("(%d,%d)", ev[0], ev[1])
		out = append(out, t)
	}
	return out
}

// FormatTable3 renders the partition comparison.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-16s %-10s %-10s\n", "Workload", "Category", "Dyn", "Even")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-16s %-10s %-10s\n", r.Workload, r.Category, r.Dyn, r.Even)
	}
	return b.String()
}
