package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"syscall"
	"time"

	"warpedslicer/internal/experiments"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/mem"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/runlog"
	"warpedslicer/internal/sm"
)

// policies is the Figure 6 policy set every drawn pair runs under, in
// the order experiments.Figure6 runs them (left-over first: it is the
// normalisation baseline).
var policies = []string{"leftover", "spatial", "even", "dynamic"}

// workload is one benchmark input set: a pool of kernel pairs the seed
// draws from and orders, and how the session runs them.
type workload struct {
	name string
	// workers is the session's Parallelism for the timed passes.
	workers int
	// ledger arms Options.Ledger (a fresh directory per pass); oracle
	// appends Session.Oracle to every pair's Figure 6 row.
	ledger, oracle bool
	draw           func(r *rand.Rand) []experiments.Workload
	// traceKernels are the kernels whose warp streams feed the layer
	// microbenchmarks (the address trace of the workload's own kernels).
	traceKernels []string
}

// Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
var workloads = []workload{
	{
		name:         "compute_corun",
		workers:      1,
		draw:         func(r *rand.Rand) []experiments.Workload { return shuffled(r, pool("Compute+Compute", nil)) },
		traceKernels: []string{"DXT", "HOT", "IMG", "MM"},
	},
	{
		name:    "memory_corun",
		workers: 1,
		draw: func(r *rand.Rand) []experiments.Workload {
			return shuffled(r, pool("Compute+Memory", []string{"BFS", "KNN"}))
		},
		traceKernels: []string{"BFS", "KNN"},
	},
	{
		name:         "oracle_ledger",
		workers:      2,
		ledger:       true,
		oracle:       true,
		draw:         drawOracleTriple,
		traceKernels: []string{"BFS", "NN"},
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// pool returns the Figure 6 pairs of one category, optionally only those
// whose second kernel is in partners.
func pool(category string, partners []string) []experiments.Workload {
	var out []experiments.Workload
	for _, w := range experiments.Pairs() {
		if w.Category != category {
			continue
		}
		if partners != nil && !contains(partners, w.Specs[1].Abbr) {
			continue
		}
		out = append(out, w)
	}
	return out
}

func shuffled(r *rand.Rand, ws []experiments.Workload) []experiments.Workload {
	r.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	return ws
}

// drawOracleTriple draws one pair from each Figure 6 category as a Latin
// square over the four compute kernels: the seed permutes them, the first
// pairs with NN (Compute+Cache), the second with BFS (Compute+Memory) and
// the last two with each other (Compute+Compute). Every triple holds each
// compute kernel exactly once, so the oracle search's size, which follows
// the compute kernels' CTA footprints, stays within a few percent across
// seeds while the seed still picks 1 of 12 triples and their order.
func drawOracleTriple(r *rand.Rand) []experiments.Workload {
	computes := kernels.ComputeSuite()
	perm := r.Perm(len(computes))
	c := func(i int) string { return computes[perm[i]].Abbr }
	var out []experiments.Workload
	for _, w := range experiments.Pairs() {
		a, b := w.Specs[0].Abbr, w.Specs[1].Abbr
		switch {
		case w.Category == "Compute+Cache" && a == c(0) && b == "NN",
			w.Category == "Compute+Memory" && a == c(1) && b == "BFS",
			w.Category == "Compute+Compute" && contains([]string{c(2), c(3)}, a) && contains([]string{c(2), c(3)}, b):
			out = append(out, w)
		}
	}
	return shuffled(r, out)
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func pairNames(ws []experiments.Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name()
	}
	return out
}

// passResult is what one pass process reports to the orchestrator.
type passResult struct {
	Pairs []string `json:"pairs"`
	// FirstSimNs is the Unix time the first simulation was started.
	FirstSimNs int64 `json:"first_sim_ns"`
	Attempted  int   `json:"attempted"`
	Failed     int   `json:"failed"`
	// Failures names each failed simulation.
	Failures []string `json:"failures,omitempty"`
	// Cycles is the simulated GPU cycles summed over every simulation;
	// with a ledger they come from its journal, so the oracle search
	// counts too.
	Cycles int64 `json:"cycles"`
	// Digest hashes every returned result (and, with a ledger, every
	// journal entry's deterministic fields) in a fixed order.
	Digest string `json:"digest"`
	// DynOverEven / DynOverOracle are geometric means over the pairs of
	// the Dynamic policy's combined IPC over Even's and the oracle's.
	DynOverEven   float64 `json:"dyn_over_even"`
	DynOverOracle float64 `json:"dyn_over_oracle,omitempty"`
	Sim           simAgg  `json:"sim"`
	// Kinds rolls runs up by kind: from the ledger journal when one is
	// armed, otherwise from the traced pass's call spans.
	Kinds map[string]kindAgg `json:"kinds,omitempty"`
	Spans []spanRec          `json:"spans,omitempty"`
}

// simAgg sums the deterministic counters of every returned result.
type simAgg struct {
	SMCycles, CycIssuing, CycStallUnknown uint64
	Slots, SchedFast                      uint64
	L1Loads, L1Miss, L2Loads, L2Miss      uint64
	BusBusy, MemTicks                     uint64
}

type kindAgg struct {
	Runs  int   `json:"runs"`
	Wall  int64 `json:"wall_ns"`
	CPUNs int64 `json:"cpu_ns"`
}

// plus counts one more run of the kind.
func (k kindAgg) plus(wallNs, cpuNs int64) kindAgg {
	return kindAgg{Runs: k.Runs + 1, Wall: k.Wall + wallNs, CPUNs: k.CPUNs + cpuNs}
}

// journalKind maps ledger journal kinds to the benchmark's run kinds.
var journalKind = map[string]string{
	"iso": "iso", "corun": "corun", "oracle": "oracle_search", "oracle-final": "oracle_final",
}

// passRun is one pass in progress.
type passRun struct {
	res    passResult
	hash   hash.Hash64
	traced bool
	t0     time.Time
	led    *runlog.Ledger
	// seen holds the journal keys already attached to a span.
	seen map[string]bool
}

// newSession builds the pass's session: Quick windows, the workload's
// worker count, a fresh ledger when the workload arms one, and the
// engine profiler at its default period when traced. Everything up to
// the first simulation is the benchmark's set-up.
func newSession(w workload, workers int, traced bool, ledgerDir string) (*experiments.Session, *runlog.Ledger, error) {
	o := experiments.Quick()
	o.Parallelism = workers
	if traced {
		o.ProfPeriod = prof.DefaultPeriod
	}
	var led *runlog.Ledger
	if w.ledger {
		var err error
		if led, err = runlog.Open(ledgerDir); err != nil {
			return nil, nil, err
		}
		led.WallNow = func() int64 { return time.Now().UnixNano() }
		led.CPUNow = cpuNowNs
		o.Ledger = led
	}
	return experiments.NewSession(o), led, nil
}

// runPass runs every drawn pair's Figure 6 row through the session and
// checks and digests each result.
func runPass(w workload, pairs []experiments.Workload, workers int, traced bool, ledgerDir string) (passResult, error) {
	s, led, err := newSession(w, workers, traced, ledgerDir)
	if err != nil {
		return passResult{}, err
	}
	p := &passRun{hash: fnv.New64a(), traced: traced, led: led, seen: map[string]bool{}}
	p.res.Pairs = pairNames(pairs)
	p.t0 = time.Now()
	p.res.FirstSimNs = p.t0.UnixNano()
	passSpan := p.open("pass", w.name, -1)

	isolated := map[string]bool{}
	var logEven, logOracle float64
	for _, pair := range pairs {
		pairSpan := p.open("pair", pair.Name(), passSpan)
		for _, spec := range pair.Specs {
			if isolated[spec.Abbr] {
				continue
			}
			isolated[spec.Abbr] = true
			p.call("Session.Isolation", spec.Abbr, pairSpan, func() {
				p.checkIsolation(s.Isolation(spec))
			})
		}
		ipc := map[string]float64{}
		for _, pol := range policies {
			p.call("Session.CoRun", pair.Name()+"/"+pol, pairSpan, func() {
				r := s.CoRun(pair.Specs, pol)
				p.checkCoRun(r)
				ipc[pol] = r.IPC
			})
		}
		logEven += math.Log(ipc["dynamic"] / ipc["even"])
		if w.oracle {
			p.call("Session.Oracle", pair.Name(), pairSpan, func() {
				r := s.Oracle(pair.Specs)
				p.checkCoRun(r)
				// As in Figure 6, the oracle is at least as good as every
				// policy its search space subsumes.
				best := r.IPC
				for _, pol := range policies[1:] {
					best = math.Max(best, ipc[pol])
				}
				logOracle += math.Log(ipc["dynamic"] / best)
			})
		}
		p.close(pairSpan)
	}
	p.close(passSpan)

	n := float64(len(pairs))
	p.res.DynOverEven = math.Exp(logEven / n)
	if w.oracle {
		p.res.DynOverOracle = math.Exp(logOracle / n)
	}
	if led != nil {
		p.foldJournal()
	}
	p.res.Digest = fmt.Sprintf("%016x", p.hash.Sum64())
	return p.res, nil
}

// call runs one Session call, counting a panic as a failed simulation.
// Traced passes record a span around it, plus one child span per run the
// call appended to the ledger journal.
func (p *passRun) call(name, attr string, parent int, fn func()) {
	id := p.open(name, attr, parent)
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.fail(fmt.Sprintf("%s %s: panic: %v", name, attr, r))
				p.res.Attempted++
			}
		}()
		fn()
	}()
	p.close(id)
	if p.traced && p.led != nil {
		for _, e := range p.led.List() {
			if !p.seen[e.Key] {
				p.seen[e.Key] = true
				p.res.Spans = append(p.res.Spans, spanRec{
					ID: len(p.res.Spans), Parent: id, Name: "run." + journalKind[e.Kind],
					Attr: e.Workload + "/" + e.Policy, StartNs: -1, DurNs: e.WallNs, CPUNs: e.CPUNs,
				})
			}
		}
	}
}

func (p *passRun) fail(msg string) {
	p.res.Failed++
	p.res.Failures = append(p.res.Failures, msg)
}

func (p *passRun) checkIsolation(r experiments.Isolation) {
	fmt.Fprintf(p.hash, "iso %s %d %d %x\n", r.Spec.Abbr, r.Cycles, r.Insts, math.Float64bits(r.IPC))
	if p.led == nil {
		p.res.Attempted++
		p.res.Cycles += r.Cycles
	}
	if r.Insts == 0 || !(r.IPC > 0) || math.IsInf(r.IPC, 0) {
		p.fail(fmt.Sprintf("iso %s: no progress (insts %d, ipc %g)", r.Spec.Abbr, r.Insts, r.IPC))
	}
	p.res.Sim.add(r.SM, r.Mem)
}

func (p *passRun) checkCoRun(r experiments.CoRun) {
	name := experiments.WorkloadName(r.Specs) + "/" + r.Policy
	fmt.Fprintf(p.hash, "corun %s %d %t %v %v %v %t %x", name, r.Cycles, r.Timeout, r.Insts, r.FinishCycles, r.Partition, r.ChoseSpatial, math.Float64bits(r.IPC))
	for _, v := range r.PerKernelIPC {
		fmt.Fprintf(p.hash, " %x", math.Float64bits(v))
	}
	fmt.Fprintln(p.hash)
	if p.led == nil {
		p.res.Attempted++
		p.res.Cycles += r.Cycles
	}
	switch {
	case r.Timeout:
		p.fail(fmt.Sprintf("%s: hit MaxCoRunCycles at %d", name, r.Cycles))
	case !(r.IPC > 0) || math.IsInf(r.IPC, 0):
		p.fail(fmt.Sprintf("%s: combined IPC %g", name, r.IPC))
	default:
		for i, t := range r.Targets {
			if r.Insts[i] < t {
				p.fail(fmt.Sprintf("%s: kernel %d stopped at %d of %d insts", name, i, r.Insts[i], t))
			}
		}
	}
	p.res.Sim.add(r.SM, r.Mem)
}

func (a *simAgg) add(st sm.Stats, ms mem.Stats) {
	a.SMCycles += st.CycIssuing + st.CycStallKnown + st.CycStallUnknown + st.CycIdle
	a.CycIssuing += st.CycIssuing
	a.CycStallUnknown += st.CycStallUnknown
	a.Slots += st.Slots
	a.SchedFast += st.SchedFastSlots
	a.L1Loads += st.L1.Loads
	a.L1Miss += st.L1.LoadMiss
	a.L2Loads += ms.L2.Loads
	a.L2Miss += ms.L2.LoadMiss
	a.BusBusy += ms.BusBusy
	a.MemTicks += ms.MemTicks
}

// foldJournal takes the ledger workload's simulation count, simulated
// cycles and per-kind rollup from the journal, which also lists the
// oracle search runs no Session call returns, and adds the journal's
// deterministic fields to the digest.
func (p *passRun) foldJournal() {
	v := p.led.View()
	p.res.Attempted += int(v.Appends + v.DedupHits)
	p.res.Kinds = map[string]kindAgg{}
	for _, e := range v.Runs {
		p.res.Cycles += e.Cycles
		fmt.Fprintf(p.hash, "run %s %s %s %s %d %t %x\n", e.Key, e.Kind, e.Workload, e.Policy, e.Cycles, e.Timeout, math.Float64bits(e.IPC))
		p.res.Kinds[journalKind[e.Kind]] = p.res.Kinds[journalKind[e.Kind]].plus(e.WallNs, e.CPUNs)
	}
}

// cpuNowNs is the process's cumulative user+system CPU time.
func cpuNowNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "wsbench: getrusage:", err)
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
