package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"warpedslicer/internal/kernels"
	"warpedslicer/internal/prof"
)

// EngineProfRow is one line of the engine self-profile sweep: one
// workload's deterministic cycle classification (the fast-forward
// opportunity meter) plus, when the session attaches a profiler
// (Options.ProfPeriod > 0), the sampled wall-clock phase costs of the
// cycle loop under that kernel mix. The two halves answer different
// questions — "how many cycles could an event-driven engine skip for
// this mix" and "which loop phase should a speed PR attack first" — and
// only the first is part of the determinism contract.
type EngineProfRow struct {
	Workload string // e.g. "HOT" or "HOT_BLK"
	Category string // "single" or the Table II pairing category
	Kernels  int
	Cycles   int64

	// SM-cycle class fractions (of SMs × Cycles); they sum to 1.
	IssuingFrac, StallKnownFrac, StallUnknownFrac, IdleFrac float64

	// FFSkippableFrac is the fraction of whole-device cycles where every
	// SM had a known wake-up and the memory system held only stamped
	// replies — the upper bound on ROADMAP item 2a's payoff.
	FFSkippableFrac float64

	// SchedFastFrac is the fraction of issue slots the ready-set
	// scheduler resolved from its cached attribution without walking the
	// warp list — the realized, deterministic half of that opportunity.
	SchedFastFrac float64

	// NsPerCycle is the measured full-loop wall cost per cycle over the
	// profiler's sampled cycles (0 when profiling is off).
	NsPerCycle float64
	// PhaseNsPerCycle / PhaseShare split NsPerCycle by phase; the shares
	// sum to 1 (100% of measured loop time) by the prof package's
	// telescoping-mark construction.
	PhaseNsPerCycle [prof.NumPhases]float64
	PhaseShare      [prof.NumPhases]float64
}

// EngineProfWorkloads is the sweep's kernel-mix axis: every distinct
// kernel alone (phase costs of a homogeneous mix), then the given
// co-run workloads (how sharing shifts them).
func EngineProfWorkloads(ws []Workload) []Workload {
	var out []Workload
	seen := map[string]bool{}
	for _, w := range ws {
		for _, spec := range w.Specs {
			if !seen[spec.Abbr] {
				seen[spec.Abbr] = true
				out = append(out, Workload{Specs: []*kernels.Spec{spec}, Category: "single"})
			}
		}
	}
	return append(out, ws...)
}

// FigEngineProf profiles the engine under each workload: a fixed-length
// run under the even intra-SM partition, long enough for the phase mix to
// stabilize (the session's IsolationCycles window). Workloads fan across
// the worker pool; rows are collected by index, so the deterministic
// columns are byte-identical for any Parallelism.
func FigEngineProf(s *Session, ws []Workload) []EngineProfRow {
	rows := make([]EngineProfRow, len(ws))
	s.parallelFor(len(ws), func(i int) {
		w := ws[i]
		_, g := s.simulate(run{kind: "engineprof", scope: "engineprof/" + w.Name(), policy: "even",
			specs: w.Specs, window: s.O.IsolationCycles})
		p := g.Profile()
		r := EngineProfRow{
			Workload:        w.Name(),
			Category:        w.Category,
			Kernels:         len(w.Specs),
			Cycles:          p.Cycles,
			FFSkippableFrac: p.FFSkippableFrac,
			SchedFastFrac:   p.SchedFastFrac,
		}
		if smCycles := float64(p.SMs) * float64(p.Cycles); smCycles > 0 {
			r.IssuingFrac = float64(p.CycIssuing) / smCycles
			r.StallKnownFrac = float64(p.CycStallKnown) / smCycles
			r.StallUnknownFrac = float64(p.CycStallUnknown) / smCycles
			r.IdleFrac = float64(p.CycIdle) / smCycles
		}
		if p.Phases != nil {
			r.NsPerCycle = p.Phases.NsPerCycle
			for ph, pc := range p.Phases.Phases {
				r.PhaseNsPerCycle[ph] = pc.NsPerCycle
				r.PhaseShare[ph] = pc.Share
			}
		}
		rows[i] = r
	})
	return rows
}

// WriteEngineProfCSV exports the sweep. The four class-fraction columns
// of any row sum to 1, the phase_share_* columns sum to 1 whenever
// profiling was on (all-zero otherwise), and only the phase/ns columns
// carry wall-clock noise — everything else is deterministic.
func WriteEngineProfCSV(w io.Writer, rows []EngineProfRow) error {
	cw := csv.NewWriter(w)
	header := []string{"workload", "category", "kernels", "cycles",
		"issuing_frac", "stall_known_frac", "stall_unknown_frac", "idle_frac",
		"fast_forward_skippable_frac", "sched_fastpath_frac", "ns_per_cycle"}
	for ph := prof.Phase(0); ph < prof.NumPhases; ph++ {
		header = append(header, "phase_ns_"+ph.String())
	}
	for ph := prof.Phase(0); ph < prof.NumPhases; ph++ {
		header = append(header, "phase_share_"+ph.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Workload, r.Category, fmt.Sprint(r.Kernels), fmt.Sprint(r.Cycles),
			f4(r.IssuingFrac), f4(r.StallKnownFrac), f4(r.StallUnknownFrac), f4(r.IdleFrac),
			f4(r.FFSkippableFrac), f4(r.SchedFastFrac), f4(r.NsPerCycle),
		}
		for ph := prof.Phase(0); ph < prof.NumPhases; ph++ {
			rec = append(rec, f4(r.PhaseNsPerCycle[ph]))
		}
		for ph := prof.Phase(0); ph < prof.NumPhases; ph++ {
			rec = append(rec, f4(r.PhaseShare[ph]))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FormatEngineProf renders the sweep as a compact table: the opportunity
// meter always, the phase split only when profiling was on.
func FormatEngineProf(rows []EngineProfRow) string {
	var b strings.Builder
	b.WriteString("workload        issuing known unknown idle   ff-skip sched-fast  ns/cyc  top phases\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %6.1f%% %4.1f%% %5.1f%% %5.1f%% %6.2f%% %9.1f%%",
			r.Workload, 100*r.IssuingFrac, 100*r.StallKnownFrac,
			100*r.StallUnknownFrac, 100*r.IdleFrac, 100*r.FFSkippableFrac,
			100*r.SchedFastFrac)
		if r.NsPerCycle > 0 {
			fmt.Fprintf(&b, " %7.0f ", r.NsPerCycle)
			for ph := prof.Phase(0); ph < prof.NumPhases; ph++ {
				if r.PhaseShare[ph] >= 0.10 {
					fmt.Fprintf(&b, " %s=%.0f%%", ph, 100*r.PhaseShare[ph])
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
