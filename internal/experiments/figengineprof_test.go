package experiments

import (
	"bytes"
	"math"
	"testing"

	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/policy"
	"warpedslicer/internal/prof"
)

// TestEngineProfConservation pins the opportunity meter's accounting:
// every SM-cycle of a run lands in exactly one class, so the four class
// counters sum to SMs × cycles (the simassert build checks the same
// per-SM each cycle; this pins the aggregate on the default build), and
// the CSV-facing fractions sum to 1.
func TestEngineProfConservation(t *testing.T) {
	o := Quick()
	g := gpu.New(o.Cfg, policy.Even{})
	g.SetSchedulers(o.Sched)
	w := Pairs()[0]
	for _, spec := range w.Specs {
		g.AddKernel(spec, 0)
	}
	g.RunCycles(o.IsolationCycles)

	p := g.Profile()
	sum := p.CycIssuing + p.CycStallKnown + p.CycStallUnknown + p.CycIdle
	want := uint64(p.SMs) * uint64(p.Cycles)
	if sum != want {
		t.Fatalf("class sum = %d (issuing %d known %d unknown %d idle %d), want SMs×cycles = %d",
			sum, p.CycIssuing, p.CycStallKnown, p.CycStallUnknown, p.CycIdle, want)
	}
	if p.CycIssuing == 0 {
		t.Error("no issuing cycles in a co-run; classifier is mislabeling")
	}
	if uint64(p.FFSkippableCycles) > uint64(p.Cycles) {
		t.Errorf("ff_skippable = %d exceeds cycles %d", p.FFSkippableCycles, p.Cycles)
	}

	rows := FigEngineProf(NewSession(o), []Workload{w})
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	fracs := r.IssuingFrac + r.StallKnownFrac + r.StallUnknownFrac + r.IdleFrac
	if math.Abs(fracs-1) > 1e-9 {
		t.Errorf("class fractions sum to %v, want 1", fracs)
	}
	if r.NsPerCycle != 0 {
		t.Errorf("ns_per_cycle = %v with profiling off, want 0", r.NsPerCycle)
	}
}

// TestSchedFastPathFloor pins the scheduler fast path's reach on a
// memory-bound kernel: BFS alone on the Quick window (GTO) stalls in
// nearly every slot, mostly with ready warps waiting on a full LD/ST
// queue, and replaying those slots from the cached attribution is what
// keeps its issue stage cheap. SchedFastSlots is a pure event count, so
// the floor guards the speed-up without timing the host. Replaying only
// slots with no ready warp gave 0.092 here.
func TestSchedFastPathFloor(t *testing.T) {
	o := Quick()
	rows := FigEngineProf(NewSession(o), []Workload{{Specs: []*kernels.Spec{kernels.ByAbbr("BFS")}}})
	if got := rows[0].SchedFastFrac; got < 0.9 {
		t.Fatalf("BFS alone (%v scheduler): sched_fastpath_frac = %.4f, want >= 0.9", o.Sched, got)
	}
}

// TestEngineProfDeterminism pins the determinism contract on the
// experiment's output: with profiling off every CSV column is a pure
// cycle count or a fraction of one, so serial and parallel sessions must
// produce byte-identical files.
func TestEngineProfDeterminism(t *testing.T) {
	ws := EngineProfWorkloads([]Workload{Pairs()[0]})
	csvAt := func(parallelism int) []byte {
		o := Quick()
		o.Parallelism = parallelism
		var buf bytes.Buffer
		if err := WriteEngineProfCSV(&buf, FigEngineProf(NewSession(o), ws)); err != nil {
			t.Fatalf("write csv: %v", err)
		}
		return buf.Bytes()
	}
	serial, parallel := csvAt(1), csvAt(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("engineprof CSV differs between -parallel 1 and 4:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
}

// TestEngineProfPhases pins the wall-clock half: with a profiler
// attached, phase shares sum to ~100% of measured loop time and the
// deterministic columns match a profiler-free run exactly (the profiler
// must never feed back into simulation state).
func TestEngineProfPhases(t *testing.T) {
	ws := []Workload{Pairs()[0]}

	off := Quick()
	bare := FigEngineProf(NewSession(off), ws)

	on := Quick()
	on.ProfPeriod = 7 // dense (and 64-coprime) so the quick window lands marks
	rows := FigEngineProf(NewSession(on), ws)

	r := rows[0]
	if r.NsPerCycle <= 0 {
		t.Fatal("profiler attached but measured 0 ns/cycle")
	}
	var shares float64
	for _, s := range r.PhaseShare {
		shares += s
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("phase shares sum to %v, want 1", shares)
	}

	b := bare[0]
	if r.IssuingFrac != b.IssuingFrac || r.StallKnownFrac != b.StallKnownFrac ||
		r.StallUnknownFrac != b.StallUnknownFrac || r.IdleFrac != b.IdleFrac ||
		r.FFSkippableFrac != b.FFSkippableFrac || r.Cycles != b.Cycles {
		t.Errorf("deterministic columns changed when profiling was enabled:\nwith: %+v\nwithout: %+v", r, b)
	}
}

// TestEngineProfAllPhasesExercised pins that every phase the profiler
// reports is actually measured by some code path: a run with monitoring
// and state digests armed must land nonzero nanoseconds in all of them.
// This is the regression test for the dead obs_drain phase, which sat at
// a constant 0 because it was only marked when a sampled cycle (period
// 37) coincided with a monitor cycle (period 2048) — deliberately
// coprime, so never. Rare phases (obs_drain, digest) are now timed on
// every occurrence instead of sampled (prof.RareStart/RareEnd).
func TestEngineProfAllPhasesExercised(t *testing.T) {
	o := Quick()
	o.ProfPeriod = 7
	o.DigestEvery = 512
	o.Hub = obs.NewHub(nil)

	g := gpu.New(o.Cfg, policy.Even{})
	g.SetSchedulers(o.Sched)
	o.Instrument(g)
	for _, spec := range Pairs()[0].Specs {
		g.AddKernel(spec, 0)
	}
	g.RunCycles(o.IsolationCycles)

	sum := g.Prof.Summary()
	if len(sum.Phases) != int(prof.NumPhases) {
		t.Fatalf("summary reports %d phases, want %d", len(sum.Phases), prof.NumPhases)
	}
	for _, pc := range sum.Phases {
		if pc.Ns <= 0 {
			t.Errorf("phase %q reported %d ns — dead phase: no code path ever times it", pc.Phase, pc.Ns)
		}
	}
	if g.DigestRecords() == 0 {
		t.Error("digests armed but no records taken")
	}
}
