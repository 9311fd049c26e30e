// Command wslicer regenerates the tables and figures of the Warped-Slicer
// paper (ISCA 2016) on the built-in GPU simulator.
//
// Usage:
//
//	wslicer [flags] <experiment>
//
// Experiments:
//
//	config   Table I    print the simulated GPU configuration
//	table2   Table II   per-benchmark utilization (isolation runs)
//	fig1     Figure 1   stall-cycle breakdown per benchmark
//	fig3     Figure 3a  performance vs occupancy curves + categories
//	fig3b    Figure 3b  IMG+NN sweet-spot identification
//	fig5     Figure 5   sampling-window vs long-run characterization
//	fig6     Figure 6   30 pairs x {Spatial,Even,Dynamic,Oracle} vs Left-Over
//	table3   Table III  CTA partitions chosen by Warped-Slicer vs Even
//	fig7     Figure 7   utilization, cache miss rates, stall breakdown
//	fig7c    Figure 7c  per-benchmark stall breakdown, alone vs shared (CSV)
//	figmemdecomp        sampled-span latency decomposition, alone vs shared (CSV)
//	figengineprof       engine self-profile: phase costs x kernel mix + fast-forward meter (CSV)
//	fig8     Figure 8   3-kernel workloads
//	fig9     Figure 9   fairness (min speedup) and ANTT
//	energy   §V-G       energy and dynamic power comparison
//	fig10    Figure 10  sensitivity to profiling length/delay and scheduler
//	bigsm    §V-H       large-SM configuration
//	overhead §V-I       hardware overhead of the profiling logic
//	timeline            windowed per-kernel IPC/occupancy trace (CSV)
//	divergence          first-divergence bisector: compare two recorded digest
//	                    trails (-trail-a/-trail-b), record one (-record-trail),
//	                    or self-check serial vs parallel sessions (default)
//	report              paper-vs-measured claim comparison
//	all                 everything above, in order
//
// Run ledger:
//
//	wslicer -ledger DIR <experiment>       record every completed run into a
//	                                       content-addressed ledger under DIR
//	wslicer -ledger DIR runs list          sorted run listing with wall cost
//	wslicer -ledger DIR runs show <key>    canonical RunRecord JSON (key prefixes ok)
//	wslicer -ledger DIR runs diff <a> <b>  metric/series deltas; with stored digest
//	                                       trails, hands off to the bisector
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"warpedslicer/internal/config"
	"warpedslicer/internal/digest"
	"warpedslicer/internal/divergence"
	"warpedslicer/internal/experiments"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/power"
	"warpedslicer/internal/prof"
)

func main() {
	var (
		isolation = flag.Int64("isolation", 60_000, "isolation window in cycles (paper: 2M)")
		sample    = flag.Int64("sample", 5_000, "profiling sample window in cycles")
		warmup    = flag.Int64("warmup", 20_000, "warm-up before profiling in cycles")
		oracle    = flag.Bool("oracle", true, "include the exhaustive oracle in fig6")
		pairs     = flag.Int("pairs", 0, "limit number of pair workloads (0 = all 30)")
		verbose   = flag.Bool("v", false, "log each completed run")
		quick     = flag.Bool("quick", false, "use small windows (smoke test)")
		jsonPath  = flag.String("json", "", "also write machine-readable results to this file")
		tlKernels = flag.String("kernels", "IMG,BLK", "timeline: comma-separated kernel abbreviations")
		tlWindow  = flag.Int64("window", 5000, "timeline: sampling window in cycles")
		tlCycles  = flag.Int64("cycles", 120_000, "timeline: total cycles to trace")
		tlCSV     = flag.String("csv", "", "timeline: CSV output path (default stdout)")
		csvDir    = flag.String("csvdir", "", "also write table2/fig3/fig6/fig7c/figmemdecomp results as CSV files here")

		parallel = flag.Int("parallel", 0, "worker pool size for independent simulations (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")

		metricsAddr = flag.String("metrics-addr", "", "serve live registry snapshots and the event log over HTTP (e.g. :8080)")
		pprofFlag   = flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the -metrics-addr mux")
		profPeriod  = flag.Int64("prof-period", 0, "engine self-profiler sampling period in cycles (0 = off; figengineprof defaults to 37)")
		chromeTrace = flag.String("chrometrace", "", "timeline: also write Chrome trace-event JSON here (chrome://tracing)")
		eventsPath  = flag.String("events", "", "write the structured event log as JSONL to this file at exit")

		ledgerDir = flag.String("ledger", "", "record every completed run into this content-addressed ledger dir (also enables the `runs` subcommand)")

		digestPeriod = flag.Int64("digest-period", 0, "state-digest recording period in cycles (0 = off; divergence defaults to 1024)")
		blackbox     = flag.String("blackbox", "", "arm the flight recorder and dump a black-box JSON report here if a run panics (requires -digest-period)")
		trailA       = flag.String("trail-a", "", "divergence: first recorded digest trail (JSONL) to compare")
		trailB       = flag.String("trail-b", "", "divergence: second recorded digest trail (JSONL) to compare")
		recordTrail  = flag.String("record-trail", "", "divergence: record this run's digest trail as JSONL here instead of comparing")
		divPolicy    = flag.String("policy", "even", "divergence: co-run policy for recorded/self-check trails")
	)
	flag.Parse()
	if flag.Arg(0) == "runs" {
		runRunsCmd(*ledgerDir, flag.Args()[1:])
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wslicer [flags] <experiment>  (see -h)")
		os.Exit(2)
	}

	o := experiments.Defaults()
	if *quick {
		o = experiments.Quick()
	} else {
		o.IsolationCycles = *isolation
		o.Sample = *sample
		o.Warmup = *warmup
	}
	o.Parallelism = *parallel
	o.ProfPeriod = *profPeriod
	o.DigestEvery = *digestPeriod
	o.BlackBoxPath = *blackbox
	if err := o.Validate(); err != nil {
		fatal(err)
	}
	if *blackbox != "" && *digestPeriod <= 0 {
		fatal(fmt.Errorf("-blackbox requires -digest-period > 0"))
	}
	if *pprofFlag && *metricsAddr == "" {
		fatal(fmt.Errorf("-pprof requires -metrics-addr"))
	}
	// Every run keeps a structured event log; -v renders run summaries to
	// stderr as they land, -events dumps the whole log, -metrics-addr
	// serves it (plus live counter snapshots) over HTTP.
	o.Events = obs.NewEventLog()
	if *verbose {
		o.Events.OnEvent = renderEvent
	}
	if *ledgerDir != "" {
		o.Ledger = openLedger(*ledgerDir)
	}
	if *metricsAddr != "" {
		o.Hub = obs.NewHub(o.Events)
		var srvOpts []obs.ServerOption
		if *pprofFlag {
			srvOpts = append(srvOpts, obs.WithPprof())
		}
		srv, err := obs.StartServer(*metricsAddr, o.Hub, srvOpts...)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# metrics: http://%s/\n", srv.Addr())
	}
	chromeTraceVal = *chromeTrace

	ws := experiments.Pairs()
	if *pairs > 0 && *pairs < len(ws) {
		ws = ws[:*pairs]
	}

	tlKernelsVal, tlWindowVal, tlCyclesVal, tlCSVVal = *tlKernels, *tlWindow, *tlCycles, *tlCSV
	csvDirVal = *csvDir
	trailAVal, trailBVal, recordTrailVal = *trailA, *trailB, *recordTrail
	divPolicyVal, digestPeriodVal = *divPolicy, *digestPeriod

	start := time.Now()
	results = map[string]any{}
	run(flag.Arg(0), o, ws, *oracle)
	fmt.Fprintf(os.Stderr, "# elapsed: %v\n", time.Since(start).Round(time.Second))
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath); err != nil {
			fatal(err)
		}
	}
	if *eventsPath != "" {
		if err := writeEvents(*eventsPath, o.Events); err != nil {
			fatal(err)
		}
	}
}

// renderEvent is the -v renderer: one stderr line per completed run. The
// run scope leads each line so concurrent runs' summaries stay
// attributable under -parallel.
func renderEvent(ev obs.Event) {
	switch ev.Kind {
	case obs.EvIsolationDone:
		fmt.Fprintf(os.Stderr, "# [%s] isolation %-4v insts=%v ipc=%.1f\n",
			ev.Run, ev.Data["kernel"], ev.Data["insts"], ev.Data["ipc"])
	case obs.EvCoRunDone:
		fmt.Fprintf(os.Stderr, "# [%s] corun %-8v %v ipc=%.1f cycles=%v\n",
			ev.Run, ev.Data["policy"], ev.Data["workload"], ev.Data["ipc"], ev.Data["cycles"])
	}
}

func writeEvents(path string, log *obs.EventLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return log.WriteJSONL(f)
}

// results collects each experiment's typed rows for -json export.
var results map[string]any

// csvDirVal, when set, receives CSV exports of the main result tables.
var csvDirVal string

func maybeCSV(name string, write func(w *os.File) error) {
	if csvDirVal == "" {
		return
	}
	f, err := os.Create(filepath.Join(csvDirVal, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatal(err)
	}
}

func record(key string, v any) { results[key] = v }

func writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

func run(name string, o experiments.Options, ws []experiments.Workload, withOracle bool) {
	s := experiments.NewSession(o)
	switch name {
	case "config":
		printConfig(o)
	case "table2":
		header("Table II: benchmark characteristics")
		rows := experiments.Table2(s)
		record("table2", rows)
		maybeCSV("table2.csv", func(f *os.File) error { return experiments.WriteTable2CSV(f, rows) })
		fmt.Print(experiments.FormatTable2(rows))
	case "fig1":
		header("Figure 1: stall-cycle breakdown (isolation)")
		rows := experiments.Figure1(s)
		record("figure1", rows)
		fmt.Print(experiments.FormatFigure1(rows))
	case "fig3":
		header("Figure 3a: performance vs CTA occupancy")
		curves := experiments.Figure3(s)
		record("figure3", curves)
		maybeCSV("fig3.csv", func(f *os.File) error { return experiments.WriteCurvesCSV(f, curves) })
		fmt.Print(experiments.FormatFigure3(curves))
	case "fig3b":
		header("Figure 3b: sweet-spot identification (IMG + NN)")
		ss, err := s.Figure3b(kernels.ByAbbr("IMG"), kernels.ByAbbr("NN"))
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatSweetSpot(ss))
	case "fig5":
		header("Figure 5: 5K-cycle sampling window vs long-run behaviour")
		fmt.Print(experiments.FormatFigure5(experiments.Figure5(s, 10)))
	case "fig6":
		header("Figure 6: multiprogrammed pairs, IPC normalized to Left-Over")
		rows := experiments.Figure6From(s, ws, withOracle)
		record("figure6", rows)
		record("figure6_gmeans", experiments.SummarizeFigure6(rows))
		maybeCSV("fig6.csv", func(f *os.File) error { return experiments.WriteFigure6CSV(f, rows) })
		fmt.Print(experiments.FormatFigure6(rows))
	case "table3":
		header("Table III: CTA partitions (Warped-Slicer vs Even)")
		rows := experiments.Figure6From(s, ws, false)
		fmt.Print(experiments.FormatTable3(experiments.Table3(s, rows)))
	case "fig7":
		header("Figure 7: utilization / cache miss rates / stalls")
		rows := experiments.Figure6From(s, ws, false)
		a := experiments.Figure7aFrom(s, rows)
		b := experiments.Figure7bFrom(rows)
		c := experiments.Figure7cFrom(rows)
		fmt.Print(experiments.FormatFigure7(a, b, c))
	case "fig7c":
		header("Figure 7c: per-benchmark stall breakdown (alone vs shared)")
		rows := experiments.Figure6From(s, ws, false)
		det := experiments.Figure7cDetail(s, rows)
		record("figure7c", det)
		maybeCSV("figure7c.csv", func(f *os.File) error { return experiments.WriteFigure7cCSV(f, det) })
		if err := experiments.WriteFigure7cCSV(os.Stdout, det); err != nil {
			fatal(err)
		}
	case "figmemdecomp":
		header("Memory-interference decomposition: sampled span stages, alone vs shared")
		rows := experiments.FigMemDecomp(s, ws)
		record("figmemdecomp", rows)
		maybeCSV("figmemdecomp.csv", func(f *os.File) error { return experiments.WriteMemDecompCSV(f, rows) })
		if err := experiments.WriteMemDecompCSV(os.Stdout, rows); err != nil {
			fatal(err)
		}
	case "figengineprof":
		header("Engine self-profile: phase costs x kernel mix + fast-forward opportunity")
		// The experiment's point is the phase split, so profiling defaults
		// on here (everywhere else it stays opt-in via -prof-period).
		po := o
		if po.ProfPeriod <= 0 {
			po.ProfPeriod = prof.DefaultPeriod
		}
		ps := experiments.NewSession(po)
		rows := experiments.FigEngineProf(ps, experiments.EngineProfWorkloads(ws))
		record("figengineprof", rows)
		maybeCSV("figengineprof.csv", func(f *os.File) error { return experiments.WriteEngineProfCSV(f, rows) })
		fmt.Print(experiments.FormatEngineProf(rows))
	case "fig8":
		header("Figure 8: three kernels per SM")
		fmt.Print(experiments.FormatFigure8(experiments.Figure8(s)))
	case "fig9":
		header("Figure 9: fairness and ANTT")
		pairRows := experiments.Figure6From(s, ws, false)
		tripleRows := experiments.Figure8(s)
		fmt.Print(experiments.FormatFigure9(experiments.Figure9(s, pairRows, tripleRows)))
	case "energy":
		header("§V-G: energy and power")
		rows := experiments.Figure6From(s, ws, false)
		fmt.Print(experiments.FormatEnergy(experiments.Energy(s, rows)))
	case "fig10":
		header("Figure 10: sensitivity analysis")
		a := experiments.Figure10a(o, ws)
		b := experiments.Figure10b(o, ws)
		fmt.Print(experiments.FormatFigure10(a, b))
	case "bigsm":
		header("§V-H: large-SM configuration")
		lo := o
		lo.Cfg = config.LargeSM()
		fmt.Print(experiments.FormatBigSM(experiments.BigSM(lo, ws)))
	case "overhead":
		header("§V-I: hardware overhead")
		fmt.Print(experiments.FormatOverhead(power.Overhead(o.Cfg.NumSMs)))
	case "report":
		header("Paper-vs-measured report")
		pairRows := experiments.Figure6From(s, ws, withOracle)
		tripleRows := experiments.Figure8(s)
		fair := experiments.Figure9(s, pairRows, tripleRows)
		en := experiments.Energy(s, pairRows)
		rep := experiments.BuildReport(pairRows, tripleRows, fair, en)
		record("report", rep)
		fmt.Print(rep.Format())
	case "timeline":
		runTimeline(s)
	case "divergence":
		runDivergence(o)
	case "all":
		runAll(o, ws, withOracle)
	default:
		fatal(fmt.Errorf("unknown experiment %q", name))
	}
}

// timeline flag values (set in main, read by runTimeline).
var (
	tlKernelsVal   = "IMG,BLK"
	tlWindowVal    = int64(5000)
	tlCyclesVal    = int64(120_000)
	tlCSVVal       = ""
	chromeTraceVal = ""
)

// parseKernels resolves a comma-separated abbreviation list ("IMG,BLK").
func parseKernels(list string) []*kernels.Spec {
	var specs []*kernels.Spec
	for _, a := range strings.Split(list, ",") {
		spec := kernels.ByAbbr(strings.TrimSpace(a))
		if spec == nil {
			fatal(fmt.Errorf("unknown kernel %q", a))
		}
		specs = append(specs, spec)
	}
	return specs
}

// divergence flag values (set in main, read by runDivergence).
var (
	trailAVal, trailBVal, recordTrailVal string
	divPolicyVal                         string
	digestPeriodVal                      int64
)

// runDivergence is the first-divergence bisector entry point. Three
// modes: compare two recorded trail files, record a trail, or (default)
// self-check that a serial and a parallel session produce identical
// digest trails for the same co-run. Exits 1 on divergence.
func runDivergence(o experiments.Options) {
	every := digestPeriodVal
	if every <= 0 {
		every = gpu.DefaultDigestEvery
	}
	specs := parseKernels(tlKernelsVal)

	switch {
	case trailAVal != "" || trailBVal != "":
		if trailAVal == "" || trailBVal == "" {
			fatal(fmt.Errorf("divergence: -trail-a and -trail-b must both be set"))
		}
		a, b := readTrail(trailAVal), readTrail(trailBVal)
		d, ok := divergence.Trails(a, b)
		report(d, ok, fmt.Sprintf("%s vs %s (%d vs %d records)",
			trailAVal, trailBVal, len(a.Records), len(b.Records)))

	case recordTrailVal != "":
		s := experiments.NewSession(o)
		t := s.DigestTrail(specs, divPolicyVal, nil, every)
		f, err := os.Create(recordTrailVal)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := t.WriteJSONL(f); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d digest records (period %d, chain %s) to %s\n",
			len(t.Records), every, t.Chain(), recordTrailVal)

	default:
		header("Divergence self-check: serial vs parallel session")
		d, ok := divergence.ParallelSerial(o, specs, divPolicyVal, nil, every)
		report(d, ok, fmt.Sprintf("serial vs parallel, policy %q, workload %s, period %d",
			divPolicyVal, experiments.WorkloadName(specs), every))
	}
}

func readTrail(path string) *digest.Trail {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	t, err := digest.ReadTrailJSONL(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return t
}

// report prints a bisection verdict and exits 1 on divergence.
func report(d digest.Divergence, ok bool, label string) {
	if !ok {
		fmt.Printf("identical: %s\n", label)
		return
	}
	fmt.Printf("DIVERGED (%s): %s\n", label, d)
	os.Exit(1)
}

// runTimeline traces a Warped-Slicer co-run window by window.
func runTimeline(s *experiments.Session) {
	tl, r := s.Timeline(parseKernels(tlKernelsVal), tlWindowVal, tlCyclesVal)

	out := os.Stdout
	if tlCSVVal != "" {
		f, err := os.Create(tlCSVVal)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := tl.WriteCSV(out); err != nil {
		fatal(err)
	}
	if chromeTraceVal != "" {
		f, err := os.Create(chromeTraceVal)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tl.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
	}
	if len(r.Partition) > 0 {
		fmt.Fprintf(os.Stderr, "# partition: %v\n", r.Partition)
	}
	if rep, ok := s.O.Events.First(obs.EvRepartition); ok {
		fmt.Fprintf(os.Stderr, "# repartition landed at cycle %d\n", rep.Cycle)
	}
}

// runAll regenerates everything, sharing one session so the 30-pair sweep
// feeds Table III, Figure 7, Figure 9 and the energy study without re-runs.
func runAll(o experiments.Options, ws []experiments.Workload, withOracle bool) {
	s := experiments.NewSession(o)

	printConfig(o)
	fmt.Println()

	header("Table II: benchmark characteristics")
	t2 := experiments.Table2(s)
	record("table2", t2)
	fmt.Print(experiments.FormatTable2(t2))
	fmt.Println()

	header("Figure 1: stall-cycle breakdown (isolation)")
	f1 := experiments.Figure1(s)
	record("figure1", f1)
	fmt.Print(experiments.FormatFigure1(f1))
	fmt.Println()

	header("Figure 3a: performance vs CTA occupancy")
	f3 := experiments.Figure3(s)
	record("figure3", f3)
	fmt.Print(experiments.FormatFigure3(f3))
	fmt.Println()

	header("Figure 3b: sweet-spot identification (IMG + NN)")
	if ss, err := s.Figure3b(kernels.ByAbbr("IMG"), kernels.ByAbbr("NN")); err == nil {
		fmt.Print(experiments.FormatSweetSpot(ss))
	} else {
		fmt.Println("error:", err)
	}
	fmt.Println()

	header("Figure 5: 5K-cycle sampling window vs long-run behaviour")
	fmt.Print(experiments.FormatFigure5(experiments.Figure5(s, 10)))
	fmt.Println()

	header("Figure 6: multiprogrammed pairs, IPC normalized to Left-Over")
	rows := experiments.Figure6From(s, ws, withOracle)
	record("figure6", rows)
	record("figure6_gmeans", experiments.SummarizeFigure6(rows))
	fmt.Print(experiments.FormatFigure6(rows))
	fmt.Println()

	header("Table III: CTA partitions (Warped-Slicer vs Even)")
	fmt.Print(experiments.FormatTable3(experiments.Table3(s, rows)))
	fmt.Println()

	header("Figure 7: utilization / cache miss rates / stalls")
	fmt.Print(experiments.FormatFigure7(
		experiments.Figure7aFrom(s, rows),
		experiments.Figure7bFrom(rows),
		experiments.Figure7cFrom(rows)))
	fmt.Println()

	header("Figure 7c: per-benchmark stall breakdown (alone vs shared)")
	det := experiments.Figure7cDetail(s, rows)
	record("figure7c", det)
	fmt.Print(experiments.FormatFigure7cDetail(det))
	fmt.Println()

	header("Memory-interference decomposition: sampled span stages, alone vs shared")
	md := experiments.FigMemDecomp(s, ws)
	record("figmemdecomp", md)
	fmt.Print(experiments.FormatMemDecomp(md))
	fmt.Println()

	header("Engine self-profile: phase costs x kernel mix + fast-forward opportunity")
	po := o
	if po.ProfPeriod <= 0 {
		po.ProfPeriod = prof.DefaultPeriod
	}
	ep := experiments.FigEngineProf(experiments.NewSession(po), experiments.EngineProfWorkloads(ws))
	record("figengineprof", ep)
	fmt.Print(experiments.FormatEngineProf(ep))
	fmt.Println()

	header("Figure 8: three kernels per SM")
	rows8 := experiments.Figure8(s)
	fmt.Print(experiments.FormatFigure8(rows8))
	fmt.Println()

	header("Figure 9: fairness and ANTT")
	fmt.Print(experiments.FormatFigure9(experiments.Figure9(s, rows, rows8)))
	fmt.Println()

	header("§V-G: energy and power")
	fmt.Print(experiments.FormatEnergy(experiments.Energy(s, rows)))
	fmt.Println()

	// Figure 10 re-runs the dynamic policy under many controller settings;
	// sample every third pair to keep the sweep tractable on one core.
	var ws10 []experiments.Workload
	for i := 0; i < len(ws); i += 3 {
		ws10 = append(ws10, ws[i])
	}
	header("Figure 10: sensitivity analysis (pair subset)")
	fmt.Print(experiments.FormatFigure10(
		experiments.Figure10a(o, ws10),
		experiments.Figure10b(o, ws10)))
	fmt.Println()

	header("§V-H: large-SM configuration")
	lo := o
	lo.Cfg = config.LargeSM()
	fmt.Print(experiments.FormatBigSM(experiments.BigSM(lo, ws)))
	fmt.Println()

	header("§V-I: hardware overhead")
	fmt.Print(experiments.FormatOverhead(power.Overhead(o.Cfg.NumSMs)))
	fmt.Println()

	header("Paper-vs-measured report")
	rep := experiments.BuildReport(rows, rows8,
		experiments.Figure9(s, rows, rows8), experiments.Energy(s, rows))
	record("report", rep)
	fmt.Print(rep.Format())
}

func printConfig(o experiments.Options) {
	g := o.Cfg
	header("Table I: baseline configuration")
	fmt.Printf("Compute Units      %d, %dMHz, SIMT Width = %dx2\n", g.NumSMs, g.CoreClockMHz, g.SM.SIMTWidth)
	fmt.Printf("Resources / Core   max %d Threads, %d Registers\n", g.SM.MaxThreads, g.SM.Registers)
	fmt.Printf("                   max %d CTAs, %dKB Shared Memory\n", g.SM.MaxCTAs, g.SM.SharedMemBytes/1024)
	fmt.Printf("Warp Schedulers    %d per SM, default gto\n", g.SM.Schedulers)
	fmt.Printf("L1 Data Cache      %dKB %d-way %d MSHR\n", g.L1.SizeBytes/1024, g.L1.Assoc, g.L1.MSHRs)
	fmt.Printf("L2 Cache           %dKB/Memory Channel, %d-way\n", g.L2.SizeBytes/1024, g.L2.Assoc)
	fmt.Printf("Memory Model       %d MCs, FR-FCFS, %dMHz\n", g.Memory.Channels, g.MemClockMHz)
	fmt.Printf("GDDR5 Timing       tCL=%d tRP=%d tRC=%d tRAS=%d tRCD=%d tRRD=%d\n",
		g.Memory.TCL, g.Memory.TRP, g.Memory.TRC, g.Memory.TRAS, g.Memory.TRCD, g.Memory.TRRD)
	fmt.Printf("Windows            isolation=%d warmup=%d sample=%d\n", o.IsolationCycles, o.Warmup, o.Sample)
}

func header(s string) {
	fmt.Println("==== " + s + " ====")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wslicer:", err)
	os.Exit(1)
}
