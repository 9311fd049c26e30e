package experiments

import (
	"fmt"

	"warpedslicer/internal/digest"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/runlog"
)

// recordRun folds one completed simulation into the session's ledger —
// content-addressed inputs, headline metrics (combined and per-kernel
// IPC, stall composition, scheduler fast-path and fast-forward meters),
// the windowed counter series, and the digest-trail summary — then
// refreshes the Hub's /runs view. No-op without a ledger. Errors are
// reported on the event log rather than failing the run: provenance is
// a sink, not a dependency. wall0/cpu0 are the ledger clocks sampled
// before the run.
func (s *Session) recordRun(r run, co CoRun, g *gpu.GPU, rec *runlog.Recorder, wall0, cpu0 int64) {
	led := s.O.Ledger
	if led == nil {
		return
	}
	in := runlog.Inputs{
		Schema:        runlog.SchemaVersion,
		DigestVersion: digest.Version,
		Kind:          r.kind,
		Workload:      WorkloadName(r.specs),
		Policy:        r.policy,
		CTAs:          r.ctas,
		Targets:       r.targets,
		Window:        r.window,
		DigestPeriod:  r.trail,
		Drive:         r.params,
		Sched:         s.O.Sched.String(),
		Windows: runlog.Windows{
			Isolation:        s.O.IsolationCycles,
			MaxCoRun:         s.O.MaxCoRunCycles,
			Warmup:           s.O.Warmup,
			Sample:           s.O.Sample,
			AlgDelay:         s.O.AlgDelay,
			OracleTargetFrac: s.O.OracleTargetFrac,
			UseScaledIPC:     s.O.UseScaledIPC,
			SymmetricScaling: s.O.SymmetricScaling,
		},
		Config: s.O.Cfg,
	}
	for _, spec := range r.specs {
		in.Kernels = append(in.Kernels, spec.Abbr)
	}

	rr := &runlog.RunRecord{
		Inputs:        in,
		Cycles:        co.Cycles,
		Timeout:       co.Timeout,
		DigestChain:   g.DigestChain(),
		DigestRecords: g.DigestRecords(),
		Metrics:       runMetrics(co, g),
		Series:        rec.Series(),
	}

	wall1, cpu1 := led.Now()
	added, err := led.Append(rr, wall1-wall0, cpu1-cpu0)
	if err != nil {
		s.O.Events.Emit(co.Cycles, "runlog_error", map[string]any{"error": err.Error()})
		return
	}
	if added && g.Digests != nil {
		if err := led.PutTrail(rr.Key, g.Digests); err != nil {
			s.O.Events.Emit(co.Cycles, "runlog_error", map[string]any{"error": err.Error()})
		}
	}
	if s.O.Hub != nil {
		s.O.Hub.PublishRuns(led.View())
	}
}

// runMetrics assembles the headline metric list in a fixed order:
// combined IPC, per-kernel IPC, the stall composition as fractions of
// issue slots, and the engine opportunity meters.
func runMetrics(co CoRun, g *gpu.GPU) []runlog.Metric {
	out := []runlog.Metric{{Name: "ipc", Value: co.IPC}}
	for i, v := range co.PerKernelIPC {
		out = append(out, runlog.Metric{Name: fmt.Sprintf("ipc[%d:%s]", i, co.Specs[i].Abbr), Value: v})
	}
	if slots := float64(co.SM.Slots); slots > 0 {
		out = append(out,
			runlog.Metric{Name: "issued_frac", Value: float64(co.SM.Issued) / slots},
			runlog.Metric{Name: "stall_mem_frac", Value: float64(co.SM.StallMem) / slots},
			runlog.Metric{Name: "stall_raw_frac", Value: float64(co.SM.StallRAW) / slots},
			runlog.Metric{Name: "stall_exec_frac", Value: float64(co.SM.StallExec) / slots},
			runlog.Metric{Name: "stall_ibuf_frac", Value: float64(co.SM.StallIBuf) / slots},
			runlog.Metric{Name: "stall_idle_frac", Value: float64(co.SM.StallIdle) / slots},
		)
	}
	p := g.Profile()
	out = append(out,
		runlog.Metric{Name: "sched_fastpath_frac", Value: p.SchedFastFrac},
		runlog.Metric{Name: "fast_forward_skippable_frac", Value: p.FFSkippableFrac},
	)
	return out
}
