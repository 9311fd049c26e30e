package runlog

import (
	"fmt"
	"strings"
)

// MetricDelta is one headline metric compared across two records.
type MetricDelta struct {
	Name string  `json:"name"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
}

// SeriesDiff locates the first differing window of two recorded series.
type SeriesDiff struct {
	// Index is the point index of the first difference; Name the first
	// differing column at that point (empty for structural differences —
	// see Kind: "cycle", "length", "names", "stride").
	Index  int     `json:"index"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name,omitempty"`
	CycleA int64   `json:"cycle_a"`
	CycleB int64   `json:"cycle_b"`
	A      float64 `json:"a"`
	B      float64 `json:"b"`
}

// DiffResult is the outcome of comparing two run records: every metric
// delta, the first differing metric and series window, and whether the
// digest chains diverge (the cue to hand off to the bisector).
type DiffResult struct {
	KeyA         string        `json:"key_a"`
	KeyB         string        `json:"key_b"`
	SameInputs   bool          `json:"same_inputs"`
	CyclesA      int64         `json:"cycles_a"`
	CyclesB      int64         `json:"cycles_b"`
	Deltas       []MetricDelta `json:"deltas,omitempty"`
	FirstMetric  string        `json:"first_metric,omitempty"`
	Series       *SeriesDiff   `json:"series,omitempty"`
	ChainDiffers bool          `json:"chain_differs,omitempty"`
	Identical    bool          `json:"identical"`
}

// Diff compares two run records: metric deltas in record order, the
// first differing series window, and the digest-chain verdict.
func Diff(a, b *RunRecord) DiffResult {
	d := DiffResult{
		KeyA:       a.Key,
		KeyB:       b.Key,
		SameInputs: a.Key == b.Key,
		CyclesA:    a.Cycles,
		CyclesB:    b.Cycles,
	}
	seen := make(map[string]bool, len(a.Metrics))
	for _, m := range a.Metrics {
		seen[m.Name] = true
		bv, _ := b.Metric(m.Name)
		if m.Value != bv {
			d.Deltas = append(d.Deltas, MetricDelta{Name: m.Name, A: m.Value, B: bv})
			if d.FirstMetric == "" {
				d.FirstMetric = m.Name
			}
		}
	}
	for _, m := range b.Metrics {
		if seen[m.Name] {
			continue
		}
		d.Deltas = append(d.Deltas, MetricDelta{Name: m.Name, A: 0, B: m.Value})
		if d.FirstMetric == "" {
			d.FirstMetric = m.Name
		}
	}
	d.Series = diffSeries(a.Series, b.Series)
	d.ChainDiffers = a.DigestChain != b.DigestChain || a.DigestRecords != b.DigestRecords
	d.Identical = len(d.Deltas) == 0 && d.Series == nil && !d.ChainDiffers &&
		d.CyclesA == d.CyclesB && a.Timeout == b.Timeout
	return d
}

// diffSeries walks two series to the first differing window. A nil
// return means no difference (including both series absent).
func diffSeries(a, b *Series) *SeriesDiff {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil || b == nil:
		return &SeriesDiff{Kind: "length"}
	}
	if len(a.Names) != len(b.Names) {
		return &SeriesDiff{Kind: "names"}
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			return &SeriesDiff{Kind: "names", Name: a.Names[i] + "/" + b.Names[i]}
		}
	}
	if a.WindowsPerPoint != b.WindowsPerPoint {
		return &SeriesDiff{Kind: "stride", A: float64(a.WindowsPerPoint), B: float64(b.WindowsPerPoint)}
	}
	n := len(a.Points)
	if len(b.Points) < n {
		n = len(b.Points)
	}
	for i := 0; i < n; i++ {
		pa, pb := a.Points[i], b.Points[i]
		if pa.Cycle != pb.Cycle {
			return &SeriesDiff{Index: i, Kind: "cycle", CycleA: pa.Cycle, CycleB: pb.Cycle}
		}
		for j := range a.Names {
			if pa.Values[j] != pb.Values[j] {
				return &SeriesDiff{
					Index: i, Kind: "value", Name: a.Names[j],
					CycleA: pa.Cycle, CycleB: pb.Cycle,
					A: pa.Values[j], B: pb.Values[j],
				}
			}
		}
	}
	if len(a.Points) != len(b.Points) {
		return &SeriesDiff{Index: n, Kind: "length", A: float64(len(a.Points)), B: float64(len(b.Points))}
	}
	return nil
}

// FormatDiff renders a diff result for the `runs diff` CLI (and its
// golden test). Output is fully determined by the records.
func FormatDiff(d DiffResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "diff %s vs %s\n", d.KeyA, d.KeyB)
	if d.SameInputs {
		b.WriteString("inputs: identical content address (same run)\n")
	}
	if d.Identical {
		b.WriteString("records identical\n")
		return b.String()
	}
	if d.CyclesA != d.CyclesB {
		fmt.Fprintf(&b, "cycles: %d vs %d\n", d.CyclesA, d.CyclesB)
	}
	for _, m := range d.Deltas {
		fmt.Fprintf(&b, "metric %-32s %.6g vs %.6g (%+.6g)\n", m.Name, m.A, m.B, m.B-m.A)
	}
	if d.FirstMetric != "" {
		fmt.Fprintf(&b, "first differing metric: %s\n", d.FirstMetric)
	}
	if s := d.Series; s != nil {
		switch s.Kind {
		case "value":
			fmt.Fprintf(&b, "first differing window: point %d (cycle %d) %s: %g vs %g\n",
				s.Index, s.CycleA, s.Name, s.A, s.B)
		case "cycle":
			fmt.Fprintf(&b, "series cadence differs at point %d: cycle %d vs %d\n", s.Index, s.CycleA, s.CycleB)
		case "length":
			fmt.Fprintf(&b, "series lengths differ at point %d: %g vs %g points\n", s.Index, s.A, s.B)
		case "stride":
			fmt.Fprintf(&b, "series strides differ: %g vs %g windows/point\n", s.A, s.B)
		default:
			fmt.Fprintf(&b, "series columns differ: %s\n", s.Name)
		}
	}
	if d.ChainDiffers {
		b.WriteString("digest chains differ: run the bisector for the first divergent cycle\n")
	}
	return b.String()
}
