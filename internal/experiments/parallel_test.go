package experiments

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"warpedslicer/internal/digest"
	"warpedslicer/internal/isa"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
)

func TestParallelForCoversEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7, 100} {
		const n = 61
		counts := make([]atomic.Int64, n)
		parallelFor(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: fn(%d) ran %d times", workers, i, got)
			}
		}
	}
	parallelFor(4, 0, func(int) { t.Fatal("fn must not run for n=0") })
}

func TestParallelForSerialOrder(t *testing.T) {
	// workers <= 1 must degenerate to a plain loop in index order, so a
	// serial session is exactly the pre-parallelism harness.
	var order []int
	parallelFor(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestParallelForPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	parallelFor(4, 8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
	t.Fatal("parallelFor returned instead of panicking")
}

func TestOptionsValidate(t *testing.T) {
	if err := Quick().Validate(); err != nil {
		t.Fatalf("Quick options invalid: %v", err)
	}
	break1 := func(mut func(*Options)) Options {
		o := Quick()
		mut(&o)
		return o
	}
	bad := map[string]Options{
		"IsolationCycles=0":  break1(func(o *Options) { o.IsolationCycles = 0 }),
		"MaxCoRunCycles=-1":  break1(func(o *Options) { o.MaxCoRunCycles = -1 }),
		"Sample=0":           break1(func(o *Options) { o.Sample = 0 }),
		"Warmup=-1":          break1(func(o *Options) { o.Warmup = -1 }),
		"AlgDelay=-1":        break1(func(o *Options) { o.AlgDelay = -1 }),
		"OracleTargetFrac=0": break1(func(o *Options) { o.OracleTargetFrac = 0 }),
		"OracleTargetFrac>1": break1(func(o *Options) { o.OracleTargetFrac = 1.5 }),
		"Parallelism=-2":     break1(func(o *Options) { o.Parallelism = -2 }),
		"ProfPeriod=-1":      break1(func(o *Options) { o.ProfPeriod = -1 }),
		"DigestEvery=-1":     break1(func(o *Options) { o.DigestEvery = -1 }),
	}
	for name, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted degenerate options", name)
		}
	}
}

func TestNewSessionPanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSession accepted IsolationCycles=0")
		}
	}()
	o := Quick()
	o.IsolationCycles = 0
	NewSession(o)
}

// TestRunFixedCyclesNonPositiveWindow is the regression test for the NaN
// CSV rows: a zero-cycle window used to divide instruction counts by zero.
func TestRunFixedCyclesNonPositiveWindow(t *testing.T) {
	s := NewSession(Quick())
	specs := []*kernels.Spec{kernels.ByAbbr("IMG")}
	for _, cycles := range []int64{0, -5} {
		r := s.RunFixedCycles(specs, "even", nil, cycles)
		if math.IsNaN(r.IPC) || r.IPC != 0 {
			t.Fatalf("cycles=%d: IPC = %v, want 0", cycles, r.IPC)
		}
		for i, ipc := range r.PerKernelIPC {
			if math.IsNaN(ipc) || ipc != 0 {
				t.Fatalf("cycles=%d: PerKernelIPC[%d] = %v, want 0", cycles, i, ipc)
			}
		}
	}
}

// TestOracleReportsSpatialChoice is the regression test for the oracle's
// ChoseSpatial flag: with no feasible intra-SM combination the search must
// pick spatial multitasking and say so (Partition nil is no longer the only
// signal, since "no oracle run" also leaves it nil).
func TestOracleReportsSpatialChoice(t *testing.T) {
	// Two kernels that each fit an SM alone but never together: one CTA
	// claims 48*512 = 24576 of the 32768 registers.
	mk := func(name, abbr string) *kernels.Spec {
		sp := &kernels.Spec{
			Name: name, Abbr: abbr,
			GridDim: 256, BlockDim: 512,
			RegsPerThread: 48,
			Body: []kernels.Op{
				{Kind: isa.ALU},
				{Kind: isa.ALU, DependsPrev: true},
			},
			Iterations: 1 << 20,
			Class:      kernels.Compute,
		}
		if err := sp.Validate(); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	o := Quick()
	o.Events = obs.NewEventLog()
	s := NewSession(o)
	specs := []*kernels.Spec{mk("Fat A", "FTA"), mk("Fat B", "FTB")}
	if combos := s.feasibleCombos(specs); len(combos) != 0 {
		t.Fatalf("feasibleCombos = %v, want none", combos)
	}

	or := s.Oracle(specs)
	if !or.ChoseSpatial {
		t.Fatal("oracle picked spatial multitasking but ChoseSpatial is false")
	}
	if or.Partition != nil {
		t.Fatalf("spatial oracle winner has Partition %v", or.Partition)
	}
	if or.Policy != "oracle" {
		t.Fatalf("oracle result policy = %q", or.Policy)
	}

	// The CSV layer must render the choice, not an empty cell.
	rows := []Figure6Row{
		{Workload: "FTA_FTB", Category: "synthetic", OracleChoseSpatial: or.ChoseSpatial, OraclePartition: or.Partition},
		{Workload: "NO_ORACLE", Category: "synthetic"},
	}
	var buf bytes.Buffer
	if err := WriteFigure6CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !bytes.HasSuffix(lines[1], []byte(",spatial")) {
		t.Fatalf("oracle-spatial row = %s, want trailing ,spatial", lines[1])
	}
	if !bytes.HasSuffix(lines[2], []byte(",")) || bytes.HasSuffix(lines[2], []byte(",spatial")) {
		t.Fatalf("no-oracle row = %s, want empty oracle_partition", lines[2])
	}
}

// TestIsolationSingleflight proves the cache collapses concurrent requests
// for one kernel into a single run: N goroutines racing on a cold cache
// must produce exactly one isolation_done event and identical results.
func TestIsolationSingleflight(t *testing.T) {
	o := Quick()
	o.Events = obs.NewEventLog()
	o.Parallelism = 8
	s := NewSession(o)
	spec := kernels.ByAbbr("IMG")

	const callers = 8
	results := make([]Isolation, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Isolation(spec)
		}(i)
	}
	wg.Wait()

	if got := len(o.Events.Filter(obs.EvIsolationDone)); got != 1 {
		t.Fatalf("isolation ran %d times under concurrent callers, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i].Insts != results[0].Insts {
			t.Fatalf("caller %d saw %d insts, caller 0 saw %d", i, results[i].Insts, results[0].Insts)
		}
	}
}

// TestParallelMatchesSerial is the tentpole's determinism guarantee: a
// parallel session's Figure 6 CSV and per-run event trails are identical to
// a serial session's — only the interleaving across runs may differ.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full two-pair policy sweep twice")
	}
	run := func(workers int) ([]byte, *obs.EventLog) {
		o := Quick()
		o.Parallelism = workers
		o.Events = obs.NewEventLog()
		s := NewSession(o)
		rows := Figure6From(s, Pairs()[:2], true)
		var buf bytes.Buffer
		if err := WriteFigure6CSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), o.Events
	}
	serialCSV, serialLog := run(1)
	parallelCSV, parallelLog := run(4)

	if !bytes.Equal(serialCSV, parallelCSV) {
		t.Fatalf("parallel CSV differs from serial:\nserial:\n%s\nparallel:\n%s", serialCSV, parallelCSV)
	}

	sRuns, pRuns := serialLog.Runs(), parallelLog.Runs()
	if len(sRuns) == 0 {
		t.Fatal("serial session emitted no run-scoped events")
	}
	if !equalStrings(sRuns, pRuns) {
		t.Fatalf("run-scope sets differ:\nserial:   %v\nparallel: %v", sRuns, pRuns)
	}

	// Sharper than the old per-run event-trail walk: record the same
	// dynamic-policy co-run's chained state-digest trail through a serial
	// and a parallel session and bisect. Any nondeterminism names its
	// first cycle and component instead of surfacing as mismatched
	// end-of-run counters.
	trail := func(workers int) *digest.Trail {
		o := Quick()
		o.Parallelism = workers
		return NewSession(o).DigestTrail(Pairs()[0].Specs, "dynamic", nil, 256)
	}
	serialTrail, parallelTrail := trail(1), trail(4)
	if len(serialTrail.Records) == 0 {
		t.Fatal("serial digest trail is empty")
	}
	if d, ok := digest.Compare(serialTrail.Records, parallelTrail.Records); ok {
		t.Fatalf("parallel session diverges from serial: %s", d)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
