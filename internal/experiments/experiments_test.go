package experiments

import (
	"strings"
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/kernels"
)

func quickSession(t *testing.T) *Session {
	t.Helper()
	return NewSession(Quick())
}

func TestPairsMatchPaperCounts(t *testing.T) {
	pairs := Pairs()
	if len(pairs) != 30 {
		t.Fatalf("pairs = %d, want 30", len(pairs))
	}
	counts := map[string]int{}
	for _, p := range pairs {
		counts[p.Category]++
		if len(p.Specs) != 2 {
			t.Fatalf("%s has %d kernels", p.Name(), len(p.Specs))
		}
	}
	if counts["Compute+Cache"] != 8 || counts["Compute+Memory"] != 16 || counts["Compute+Compute"] != 6 {
		t.Fatalf("category counts = %v, want 8/16/6", counts)
	}
}

func TestTriplesMatchPaper(t *testing.T) {
	triples := Triples()
	if len(triples) != 15 {
		t.Fatalf("triples = %d, want 15", len(triples))
	}
	for _, w := range triples {
		if len(w.Specs) != 3 {
			t.Fatalf("%s has %d kernels", w.Name(), len(w.Specs))
		}
		for _, spec := range w.Specs {
			if spec == nil {
				t.Fatalf("%s has nil spec", w.Name())
			}
			if spec.Abbr == "BFS" || spec.Abbr == "HOT" {
				t.Fatalf("%s contains excluded kernel %s", w.Name(), spec.Abbr)
			}
		}
	}
}

func TestIsolationCached(t *testing.T) {
	s := quickSession(t)
	a := s.Isolation(kernels.ByAbbr("IMG"))
	b := s.Isolation(kernels.ByAbbr("IMG"))
	if a.Insts != b.Insts {
		t.Fatal("isolation cache returned different results")
	}
	if a.Insts == 0 || a.IPC <= 0 {
		t.Fatal("isolation run produced nothing")
	}
}

func TestCoRunCompletesAndNormalizes(t *testing.T) {
	s := quickSession(t)
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
	lo := s.CoRun(specs, "leftover")
	if lo.Timeout {
		t.Fatal("left-over co-run timed out")
	}
	if lo.IPC <= 0 || len(lo.PerKernelIPC) != 2 {
		t.Fatalf("bad co-run result: %+v", lo)
	}
	for i, fin := range lo.FinishCycles {
		if fin <= 0 || fin > lo.Cycles {
			t.Fatalf("kernel %d finish cycle %d out of range", i, fin)
		}
	}
	dy := s.CoRun(specs, "dynamic")
	if dy.Timeout {
		t.Fatal("dynamic co-run timed out")
	}
}

func TestOracleAtLeastAsGoodAsFixedSample(t *testing.T) {
	s := quickSession(t)
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
	or := s.Oracle(specs)
	if or.Policy != "oracle" {
		t.Fatalf("policy = %s", or.Policy)
	}
	if or.IPC <= 0 {
		t.Fatal("oracle IPC not positive")
	}
}

func TestFeasibleCombosRespectLimits(t *testing.T) {
	s := quickSession(t)
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
	combos := s.feasibleCombos(specs)
	if len(combos) == 0 {
		t.Fatal("no feasible combos")
	}
	cfg := s.O.Cfg.SM
	for _, c := range combos {
		regs := c[0]*specs[0].RegsPerCTA() + c[1]*specs[1].RegsPerCTA()
		if regs > cfg.Registers {
			t.Fatalf("combo %v exceeds registers", c)
		}
		if c[0] < 1 || c[1] < 1 {
			t.Fatalf("combo %v starves a kernel", c)
		}
		if c[0]+c[1] > cfg.MaxCTAs {
			t.Fatalf("combo %v exceeds CTA slots", c)
		}
	}
}

func TestTable2RunsAndFormats(t *testing.T) {
	s := quickSession(t)
	rows := Table2(s)
	if len(rows) != 10 {
		t.Fatalf("table2 rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r.Insts == 0 {
			t.Errorf("%s executed nothing", r.Abbr)
		}
		if r.RegPct <= 0 || r.RegPct > 100 {
			t.Errorf("%s reg%% = %.1f out of range", r.Abbr, r.RegPct)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "BLK") || !strings.Contains(out, "L2MPKI") {
		t.Fatal("table format incomplete")
	}
}

func TestMemoryKernelsHaveHighMPKI(t *testing.T) {
	s := quickSession(t)
	rows := Table2(s)
	for _, r := range rows {
		isMem := r.Type == "Memory"
		if isMem && r.L2MPKI < 30 {
			t.Errorf("%s typed Memory but MPKI %.1f < 30", r.Abbr, r.L2MPKI)
		}
		if r.Type == "Compute" && r.L2MPKI >= 30 {
			t.Errorf("%s typed Compute but MPKI %.1f >= 30", r.Abbr, r.L2MPKI)
		}
	}
}

func TestFigure1Fractions(t *testing.T) {
	s := quickSession(t)
	rows := Figure1(s)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		sum := r.Memory + r.RAW + r.Exec + r.IBuffer + r.Idle + r.Issued
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s stall fractions sum to %.3f, want 1", r.Abbr, sum)
		}
	}
	if FormatFigure1(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestRunWorkloadsSubset(t *testing.T) {
	s := quickSession(t)
	ws := Pairs()[:2]
	rows := Figure6From(s, ws, false)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Dynamic <= 0 || r.Even <= 0 || r.Spatial <= 0 {
			t.Fatalf("%s has non-positive normalized IPC: %+v", r.Workload, r)
		}
	}
	g := SummarizeFigure6(rows)
	if g.Dynamic <= 0 {
		t.Fatal("gmean not computed")
	}
	if FormatFigure6(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestSweetSpotIMGNN(t *testing.T) {
	s := quickSession(t)
	ss, err := s.Figure3b(kernels.ByAbbr("IMG"), kernels.ByAbbr("NN"))
	if err != nil {
		t.Fatal(err)
	}
	if ss.BestA < 1 || ss.BestB < 1 {
		t.Fatalf("sweet spot starves a kernel: %+v", ss)
	}
	if FormatSweetSpot(ss) == "" {
		t.Fatal("empty format")
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := quickSession(t)
	s.dispatcher("bogus", nil, nil)
}

func TestWorkloadName(t *testing.T) {
	w := Workload{Specs: []*kernels.Spec{kernels.ByAbbr("HOT"), kernels.ByAbbr("DXT")}}
	if w.Name() != "HOT_DXT" {
		t.Fatalf("name = %s", w.Name())
	}
}

func TestDefaultsValidate(t *testing.T) {
	if err := Defaults().Cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick().Cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	lg := Defaults()
	lg.Cfg = config.LargeSM()
	if err := lg.Cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFigure5WindowsStable(t *testing.T) {
	o := Quick()
	s := NewSession(o)
	rows := Figure5(s, 4)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if len(r.WindowIPC) != 4 || len(r.WindowPhiMem) != 4 {
			t.Fatalf("%s: window counts wrong", r.Abbr)
		}
		for i, v := range r.WindowIPC {
			if v < 0 {
				t.Fatalf("%s window %d negative IPC", r.Abbr, i)
			}
		}
		for i, v := range r.WindowPhiMem {
			if v < 0 || v > 1 {
				t.Fatalf("%s window %d phiMem %.2f out of [0,1]", r.Abbr, i, v)
			}
		}
	}
	if FormatFigure5(rows) == "" {
		t.Fatal("empty format")
	}
}

// TestFirstWindowErr covers the rows of kernels that drain early: a
// timeline that ends in warm-up has no windows, and must not panic.
func TestFirstWindowErr(t *testing.T) {
	for _, c := range []struct {
		ipc  []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 0},
		{[]float64{3, 0, 0}, 0},
		{[]float64{3, 2, 2}, 0.5},
		{[]float64{1, 2, 2}, 0.5},
	} {
		if got := firstWindowErr(c.ipc); got != c.want {
			t.Errorf("firstWindowErr(%v) = %v, want %v", c.ipc, got, c.want)
		}
	}
}

func TestFigure7Aggregates(t *testing.T) {
	s := quickSession(t)
	rows := Figure6From(s, Pairs()[:2], false)
	a := Figure7aFrom(s, rows)
	if a.ALU <= 0 || a.REG <= 0 {
		t.Fatalf("utilization ratios not positive: %+v", a)
	}
	b := Figure7bFrom(rows)
	for _, p := range []string{"leftover", "spatial", "even", "dynamic"} {
		cc, ok := b.Cache[p]
		if !ok {
			t.Fatalf("missing policy %s in cache category", p)
		}
		for _, v := range cc {
			if v < 0 || v > 1 {
				t.Fatalf("%s cache miss rate %v out of range", p, v)
			}
		}
	}
	c := Figure7cFrom(rows)
	if len(c) != 4 {
		t.Fatalf("figure7c rows = %d", len(c))
	}
	for _, r := range c {
		if r.Total < 0 || r.Total > 1 {
			t.Fatalf("%s total stall %v out of range", r.Policy, r.Total)
		}
	}
	if FormatFigure7(a, b, c) == "" {
		t.Fatal("empty format")
	}
}

func TestFigure9Fairness(t *testing.T) {
	s := quickSession(t)
	pairRows := Figure6From(s, Pairs()[:1], false)
	tripleRows := Figure6From(s, Triples()[:1], false)
	rows := Figure9(s, pairRows, tripleRows)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Policy == "leftover" {
			// Normalized to itself.
			if r.MinSpeedup2 < 0.99 || r.MinSpeedup2 > 1.01 {
				t.Fatalf("left-over fairness not 1.0: %v", r.MinSpeedup2)
			}
		}
		if r.ANTT2 <= 0 || r.ANTT3 <= 0 {
			t.Fatalf("%s ANTT not positive", r.Policy)
		}
	}
	if FormatFigure9(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestEnergyNormalization(t *testing.T) {
	s := quickSession(t)
	rows := Figure6From(s, Pairs()[:1], false)
	er := Energy(s, rows)
	if len(er) != 4 {
		t.Fatalf("rows = %d", len(er))
	}
	for _, r := range er {
		if r.Policy == "leftover" && (r.EnergyNorm < 0.999 || r.EnergyNorm > 1.001) {
			t.Fatalf("left-over energy not normalized to 1: %v", r.EnergyNorm)
		}
		if r.EnergyNorm <= 0 || r.DynPowerNorm <= 0 {
			t.Fatalf("%s non-positive energy metrics", r.Policy)
		}
	}
	if FormatEnergy(er) == "" {
		t.Fatal("empty format")
	}
}

func TestFigure10Sensitivity(t *testing.T) {
	o := Quick()
	ws := Pairs()[:1]
	a := Figure10a(o, ws)
	if len(a) != 8 {
		t.Fatalf("figure10a rows = %d", len(a))
	}
	for _, r := range a {
		if r.Norm <= 0 {
			t.Fatalf("%s non-positive", r.Label)
		}
	}
	b := Figure10b(o, ws)
	if len(b) != 2 || b[0].Scheduler != "gto" || b[1].Scheduler != "rr" {
		t.Fatalf("figure10b rows wrong: %+v", b)
	}
	if FormatFigure10(a, b) == "" {
		t.Fatal("empty format")
	}
}

func TestBigSMRuns(t *testing.T) {
	o := Quick()
	o.Cfg = config.LargeSM()
	r := BigSM(o, Pairs()[:1])
	if r.PerfNorm <= 0 || r.FairnessNorm <= 0 {
		t.Fatalf("bigsm result not positive: %+v", r)
	}
	if FormatBigSM(r) == "" {
		t.Fatal("empty format")
	}
}

func TestOracleRecordsPartition(t *testing.T) {
	s := quickSession(t)
	rows := Figure6From(s, Pairs()[:1], true)
	r := rows[0]
	if r.Oracle <= 0 {
		t.Fatal("oracle missing")
	}
	// The oracle is defined as the max over the search space, so it can
	// never be reported below any individual policy.
	for _, v := range []float64{r.Spatial, r.Even, r.Dynamic} {
		if r.Oracle < v-1e-9 {
			t.Fatalf("oracle %.3f below policy %.3f", r.Oracle, v)
		}
	}
}

func TestBuildReport(t *testing.T) {
	s := quickSession(t)
	pairRows := Figure6From(s, Pairs()[:1], false)
	tripleRows := Figure6From(s, Triples()[:1], false)
	fair := Figure9(s, pairRows, tripleRows)
	en := Energy(s, pairRows)
	rep := BuildReport(pairRows, tripleRows, fair, en)
	if len(rep.Claims) < 6 {
		t.Fatalf("claims = %d, want >= 6", len(rep.Claims))
	}
	ids := map[string]bool{}
	for _, c := range rep.Claims {
		if c.ID == "" || c.Claim == "" {
			t.Fatalf("incomplete claim %+v", c)
		}
		ids[c.ID] = true
	}
	for _, want := range []string{"Fig.6 Dynamic", "Fig.8 3-kernel", "§V-G energy"} {
		if !ids[want] {
			t.Fatalf("missing claim %s", want)
		}
	}
	if rep.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestBuildReportEmptyInputs(t *testing.T) {
	rep := BuildReport(nil, nil, nil, nil)
	if len(rep.Claims) != 0 {
		t.Fatalf("claims from empty inputs: %d", len(rep.Claims))
	}
}

func TestOccupancyCurveCached(t *testing.T) {
	s := quickSession(t)
	a := s.OccupancyCurve(kernels.ByAbbr("BLK"))
	b := s.OccupancyCurve(kernels.ByAbbr("BLK"))
	if a.MaxCTAs != b.MaxCTAs || a.PeakCTAs != b.PeakCTAs {
		t.Fatal("cached curve differs")
	}
	for j := 1; j <= a.MaxCTAs; j++ {
		if a.IPC[j] != b.IPC[j] {
			t.Fatal("cached curve IPC differs")
		}
	}
}

func TestClassifySyntheticCurves(t *testing.T) {
	mk := func(norm []float64) Curve {
		c := Curve{MaxCTAs: len(norm) - 1, Norm: norm, IPC: norm}
		best := 0.0
		for j := 1; j < len(norm); j++ {
			if norm[j] > best {
				best, c.PeakCTAs = norm[j], j
			}
		}
		return c
	}
	cases := []struct {
		name string
		c    Curve
		mpki float64
		want Category
	}{
		{"rising", mk([]float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}), 1, ComputeNonSaturating},
		{"saturating", mk([]float64{0, 0.5, 0.92, 0.98, 1.0}), 1, ComputeSaturating},
		{"memory", mk([]float64{0, 0.95, 0.99, 1.0}), 90, MemoryIntensive},
		{"cache", mk([]float64{0, 0.5, 1.0, 0.6, 0.3}), 5, L1CacheSensitive},
		{"empty", Curve{}, 0, ComputeNonSaturating},
	}
	for _, tc := range cases {
		tc.c.L2MPKI = tc.mpki
		if got := classify(tc.c); got != tc.want {
			t.Errorf("%s: classified %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestNormAtUsesEnvelope(t *testing.T) {
	c := Curve{MaxCTAs: 4, Norm: []float64{0, 0.5, 1.0, 0.6, 0.3}}
	// With up to 3 CTAs allowed, the runtime would launch only 2 (the
	// peak); the achievable performance is the envelope value.
	if got := normAt(c, 3); got != 1.0 {
		t.Fatalf("normAt(3) = %v, want envelope 1.0", got)
	}
	if got := normAt(c, 1); got != 0.5 {
		t.Fatalf("normAt(1) = %v, want 0.5", got)
	}
	if got := normAt(c, 0); got != 0 {
		t.Fatalf("normAt(0) = %v, want 0", got)
	}
	if got := normAt(c, 99); got != 1.0 {
		t.Fatalf("normAt beyond max = %v, want clamp", got)
	}
}

func TestFormatHelpersNonEmpty(t *testing.T) {
	rows := []Figure6Row{{
		Workload: "A_B", Category: "Compute+Cache",
		LeftOverIPC: 100, Spatial: 1.1, Even: 1.2, Dynamic: 1.3, Oracle: 1.4,
		Partition: []int{3, 2},
	}}
	if out := FormatFigure8(rows); !strings.Contains(out, "A_B") {
		t.Fatalf("figure8 format missing workload: %q", out)
	}
	t3 := []Table3Row{{Workload: "A_B", Category: "c", Dyn: "(3,2)", Even: "(2,2)"}}
	if out := FormatTable3(t3); !strings.Contains(out, "(3,2)") {
		t.Fatal("table3 format missing partition")
	}
	f9 := []Figure9Row{{Policy: "dynamic", MinSpeedup2: 1.2, MinSpeedup3: 1.3, ANTT2: 1.5, ANTT3: 1.7}}
	if out := FormatFigure9(f9); !strings.Contains(out, "dynamic") {
		t.Fatal("figure9 format missing policy")
	}
	er := []EnergyRow{{Policy: "dynamic", EnergyNorm: 0.85, DynPowerNorm: 1.03}}
	if out := FormatEnergy(er); !strings.Contains(out, "0.850") {
		t.Fatal("energy format missing value")
	}
	a := []Figure10aRow{{Label: "sample=5k", Norm: 1.0}}
	b := []Figure10bRow{{Scheduler: "gto"}}
	if out := FormatFigure10(a, b); !strings.Contains(out, "sample=5k") {
		t.Fatal("figure10 format missing label")
	}
	if out := FormatBigSM(BigSMResult{PerfNorm: 1.26, FairnessNorm: 1.26}); !strings.Contains(out, "1.26") {
		t.Fatal("bigsm format missing value")
	}
}

func TestFormatFigure8SpatialFallbackLabel(t *testing.T) {
	rows := []Figure6Row{{Workload: "X_Y_Z", ChoseSpatial: true, Spatial: 1, Even: 1, Dynamic: 1}}
	if out := FormatFigure8(rows); !strings.Contains(out, "spatial") {
		t.Fatal("fallback not labeled")
	}
}

func TestSummarizeFigure6SkipsMissingOracle(t *testing.T) {
	rows := []Figure6Row{
		{Spatial: 1, Even: 1, Dynamic: 1, Oracle: 0},
		{Spatial: 2, Even: 2, Dynamic: 2, Oracle: 2},
	}
	g := SummarizeFigure6(rows)
	if g.Oracle != 2 {
		t.Fatalf("oracle gmean = %v, want 2 (zero entries skipped)", g.Oracle)
	}
}

func TestCSVExports(t *testing.T) {
	var sb strings.Builder
	rows := []Table2Row{{Abbr: "BLK", Insts: 100, RegPct: 95, Type: "Memory", GridDim: 480, BlockDim: 128}}
	if err := WriteTable2CSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "BLK") || !strings.Contains(sb.String(), "app,insts") {
		t.Fatalf("table2 csv incomplete: %q", sb.String())
	}

	sb.Reset()
	f6 := []Figure6Row{{Workload: "A_B", Category: "c", Spatial: 1, Even: 1.1, Dynamic: 1.2, Partition: []int{4, 3}}}
	if err := WriteFigure6CSV(&sb, f6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "A_B") || !strings.Contains(sb.String(), "[4 3]") {
		t.Fatalf("figure6 csv incomplete: %q", sb.String())
	}

	sb.Reset()
	curves := []Curve{{Abbr: "NN", Category: L1CacheSensitive, MaxCTAs: 2,
		IPC: []float64{0, 100, 200}, Norm: []float64{0, 0.5, 1}}}
	if err := WriteCurvesCSV(&sb, curves); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("curves csv lines = %d, want 3", len(lines))
	}
}
