// Package prof is the engine's self-profiler: it answers "where inside
// the cycle loop does wall-clock time go" without perturbing the
// simulation it measures.
//
// The profiler is strictly one-directional. It reads the wall clock and
// accumulates per-phase nanoseconds, but nothing it produces ever feeds
// back into simulator state — runs with and without a profiler attached
// are byte-identical in every counter, CSV and golden output. That is the
// wall-clock half of the two-sided design (the deterministic half, cycle
// classification for fast-forward metering, lives in internal/sm and
// internal/gpu and is part of the determinism contract; see DESIGN.md).
//
// To stay inside the observability overhead budget (BENCH_obs.json,
// 2%), the profiler samples: StartCycle elects one cycle in Period, and
// only elected cycles pay the phase-boundary clock reads. gpu.Step hands
// sm.Cycle and mem.Subsystem.Cycle the profiler on elected cycles and nil
// otherwise, and every mark sits behind an inline nil check, so
// non-sampled cycles cost nothing beyond the election counter.
//
// This package is the only simulator package allowed to read the wall
// clock; each read site carries a simlint waiver. Phase timers anywhere
// else must route through a *Profiler (the determinism analyzer will
// flag them otherwise — see internal/lint/testdata/determ_timer).
package prof

import "time"

// Phase names one segment of the engine's cycle loop. The segments
// partition a profiled cycle exactly: every nanosecond between StartCycle
// and the cycle's last Mark is charged to exactly one phase, so phase
// shares sum to 100% of measured loop time by construction.
type Phase uint8

const (
	// Issue is warp scheduling and instruction issue (sm.issueFrom).
	Issue Phase = iota
	// Execute is writeback-ring drain and scoreboard release.
	Execute
	// L1 covers the LD/ST line-queue pump, L1 lookups and reply fills.
	L1
	// Icnt is request/reply network drain in the core clock domain.
	Icnt
	// L2 is the per-partition L2 bank access in the memory clock domain.
	L2
	// DRAM is FR-FCFS scheduling, retry drain and completion handling.
	DRAM
	// Controller is dispatcher work: arrivals, Setup/Fill/Tick, target
	// checks.
	Controller
	// ObsDrain is observability publication (registry snapshot + hub). It
	// is a rare phase: the monitor fires on its own cadence (default
	// 1-in-2048, deliberately coprime to the sampling period), so it is
	// timed on every occurrence via RareStart/RareEnd rather than on
	// sampled cycles — the old sampled Mark essentially never coincided
	// with a monitor cycle and reported a constant 0.
	ObsDrain
	// Digest is whole-GPU state-digest recording (internal/digest). Also
	// a rare phase: records land every DigestEvery cycles (default
	// 1-in-1024), off the sampled path.
	Digest

	// NumPhases bounds the phase enum.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"issue", "execute", "l1", "icnt", "l2", "dram", "controller", "obs_drain", "digest",
}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// DefaultPeriod is the default sampling period in cycles: at ~90 phase
// marks per profiled device cycle (~40ns each on a vDSO clock_gettime),
// sampling ~1-in-37 keeps the added cost around 2% of a ~5µs cycle.
//
// The period is deliberately coprime to the engine's power-of-two
// housekeeping cadences (checkTargets every 64 cycles, Monitor every 2048
// by default): a power-of-two period would alias with them — e.g. at 32,
// half the sampled cycles would include the 1-in-64 target check — and
// systematically inflate the controller/obs phases.
const DefaultPeriod = 37

// Profiler accumulates per-phase wall-clock costs over sampled cycles.
// All methods are nil-safe: a nil *Profiler is "profiling off" and every
// call is a no-op, so call sites need no guards.
type Profiler struct {
	period int64
	base   time.Time

	cycles  int64 // cycles seen by StartCycle
	sampled int64 // cycles elected for phase timing
	active  bool  // current cycle is elected
	last    int64 // ns stamp of the previous phase boundary

	phaseNs [NumPhases]int64

	// rareNs accumulates phases timed on every occurrence rather than on
	// sampled cycles (RareStart/RareEnd): work on its own long cadence —
	// monitor drains, digest records — that a 1-in-period sample would
	// essentially never observe. Folded into Summary as ns-per-total-cycle
	// instead of ns-per-sampled-cycle.
	rareNs [NumPhases]int64
}

// New returns a profiler sampling one cycle in period (<= 0 selects
// DefaultPeriod).
func New(period int64) *Profiler {
	if period <= 0 {
		period = DefaultPeriod
	}
	//simlint:allow determinism -- profiler epoch: wall-clock reads are confined to this package and never feed simulator state
	return &Profiler{period: period, base: time.Now()}
}

// now returns nanoseconds since the profiler's epoch.
func (p *Profiler) now() int64 {
	//simlint:allow determinism -- phase timer read: measurement only, no simulator state depends on it
	return int64(time.Since(p.base))
}

// StartCycle elects whether the coming cycle is profiled and, when it is,
// stamps the cycle's first phase boundary. The caller takes the profiled
// path only on true; on false (including a nil receiver) all Marks until
// the next StartCycle are no-ops.
func (p *Profiler) StartCycle() bool {
	if p == nil {
		return false
	}
	elect := p.cycles%p.period == 0
	p.cycles++
	p.active = elect
	if elect {
		p.sampled++
		//simlint:allow determtaint -- sampled-cycle boundary stamp: feeds phaseNs metering only, never simulator state
		p.last = p.now()
	}
	return elect
}

// Mark closes one phase segment: all wall time since the previous
// boundary (StartCycle or the previous Mark) is charged to ph. Multiple
// Marks against the same phase within a cycle accumulate, so interleaved
// loops (L2/DRAM per partition per memory tick) attribute correctly.
func (p *Profiler) Mark(ph Phase) {
	if p == nil || !p.active {
		return
	}
	//simlint:allow determtaint -- phase boundary stamp: feeds phaseNs metering only, never simulator state
	now := p.now()
	p.phaseNs[ph] += now - p.last
	p.last = now
}

// RareStart opens a rare-phase interval: work that happens every N
// cycles for large N (monitor drains, digest records) and would be
// missed by cycle sampling. It returns the start stamp for RareEnd; a
// nil receiver returns 0 and reads no clock.
func (p *Profiler) RareStart() int64 {
	if p == nil {
		return 0
	}
	//simlint:allow determtaint -- rare-phase start stamp: returned only to RareEnd for host-cost metering
	return p.now()
}

// RareEnd closes a rare-phase interval opened by RareStart, charging the
// elapsed time to ph on every occurrence. When the enclosing cycle is
// also a sampled one, the boundary stamp advances so the rare interval
// is never double-charged into the next sampled phase segment.
func (p *Profiler) RareEnd(ph Phase, start int64) {
	if p == nil {
		return
	}
	//simlint:allow determtaint -- rare-phase end stamp: feeds rareNs metering only, never simulator state
	end := p.now()
	p.rareNs[ph] += end - start
	if p.active {
		p.last = end
	}
}

// Period returns the sampling period in cycles.
func (p *Profiler) Period() int64 {
	if p == nil {
		return 0
	}
	return p.period
}

// PhaseCost is one phase's cost in a Summary.
type PhaseCost struct {
	Phase string `json:"phase"`
	// Ns is the accumulated wall time: over sampled cycles for sampled
	// phases, over every occurrence for rare phases.
	Ns int64 `json:"ns"`
	// NsPerCycle is the phase's estimated cost per simulated cycle:
	// sampled ns / sampled cycles, plus rare ns / total cycles (rare
	// phases are timed on every occurrence, so their amortization
	// denominator is all cycles).
	NsPerCycle float64 `json:"ns_per_cycle"`
	// Share is this phase's fraction of the total estimated per-cycle
	// loop cost.
	Share float64 `json:"share"`
}

// Summary is the exported profile view (/profile JSON, figengineprof
// rows, BENCH_obs.json phase entries).
type Summary struct {
	Period  int64 `json:"period"`
	Cycles  int64 `json:"cycles"`
	Sampled int64 `json:"sampled_cycles"`
	// TotalNs sums all phases (sampled and rare accumulators both);
	// NsPerCycle is the estimated full-loop cost per cycle: sampled ns /
	// Sampled plus rare ns / Cycles. With no rare time it reduces exactly
	// to TotalNs / Sampled.
	TotalNs    int64       `json:"total_ns"`
	NsPerCycle float64     `json:"ns_per_cycle"`
	Phases     []PhaseCost `json:"phases"`
}

// Summary renders the profiler's current accumulators. Nil receivers
// return a zero Summary.
func (p *Profiler) Summary() Summary {
	if p == nil {
		return Summary{}
	}
	s := Summary{Period: p.period, Cycles: p.cycles, Sampled: p.sampled}
	var sampledNs, rareNs int64
	for ph := Phase(0); ph < NumPhases; ph++ {
		sampledNs += p.phaseNs[ph]
		rareNs += p.rareNs[ph]
	}
	s.TotalNs = sampledNs + rareNs
	if p.sampled > 0 {
		s.NsPerCycle = float64(sampledNs) / float64(p.sampled)
	}
	if rareNs > 0 && p.cycles > 0 {
		s.NsPerCycle += float64(rareNs) / float64(p.cycles)
	}
	s.Phases = make([]PhaseCost, 0, NumPhases)
	for ph := Phase(0); ph < NumPhases; ph++ {
		pc := PhaseCost{Phase: ph.String(), Ns: p.phaseNs[ph] + p.rareNs[ph]}
		if p.sampled > 0 {
			pc.NsPerCycle = float64(p.phaseNs[ph]) / float64(p.sampled)
		}
		if p.rareNs[ph] > 0 && p.cycles > 0 {
			pc.NsPerCycle += float64(p.rareNs[ph]) / float64(p.cycles)
		}
		if s.NsPerCycle > 0 {
			pc.Share = pc.NsPerCycle / s.NsPerCycle
		}
		s.Phases = append(s.Phases, pc)
	}
	return s
}
