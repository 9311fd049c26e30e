// Command wslicer regenerates the tables and figures of the Warped-Slicer
// paper (ISCA 2016) on the built-in GPU simulator.
//
// Usage:
//
//	wslicer [flags] <experiment>
//
// Experiments, in the order `all` runs them:
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
//	fig7c    Figure 7c  per-benchmark stall breakdown, alone vs shared
//	figmemdecomp        sampled-span latency decomposition, alone vs shared
//	figengineprof       engine self-profile: phase costs x kernel mix + fast-forward meter
//	fig8     Figure 8   3-kernel workloads
//	fig9     Figure 9   fairness (min speedup) and ANTT
//	energy   §V-G       energy and dynamic power comparison
//	fig10    Figure 10  sensitivity to profiling length/delay and scheduler (every third pair)
//	bigsm    §V-H       large-SM configuration
//	overhead §V-I       hardware overhead of the profiling logic
//	report              paper-vs-measured claim comparison
//
// Other experiments (`all` skips timeline and divergence):
//
//	timeline            windowed per-kernel IPC/occupancy trace (CSV)
//	divergence          first-divergence bisector: compare two recorded digest
//	                    trails (-trail-a/-trail-b), record one (-record-trail),
//	                    or self-check serial vs parallel sessions (default)
//	all                 every experiment of the first list, in order
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
	"io"
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

// flags holds the parsed command line.
type flags struct {
	isolation, sample, warmup int64
	oracle                    bool
	pairs                     int
	verbose, quick            bool
	jsonPath                  string
	kernels                   string
	window, cycles            int64
	csvPath, csvDir           string
	parallel                  int
	metricsAddr               string
	pprof                     bool
	profPeriod                int64
	chromeTrace, eventsPath   string
	ledgerDir                 string
	digestPeriod              int64
	blackbox                  string
	trailA, trailB            string
	recordTrail, policy       string
}

func (f *flags) register(fs *flag.FlagSet) {
	fs.Int64Var(&f.isolation, "isolation", 60_000, "isolation window in cycles (paper: 2M)")
	fs.Int64Var(&f.sample, "sample", 5_000, "profiling sample window in cycles")
	fs.Int64Var(&f.warmup, "warmup", 20_000, "warm-up before profiling in cycles")
	fs.BoolVar(&f.oracle, "oracle", true, "include the exhaustive oracle in fig6")
	fs.IntVar(&f.pairs, "pairs", 0, "limit number of pair workloads (0 = all 30)")
	fs.BoolVar(&f.verbose, "v", false, "log each completed run")
	fs.BoolVar(&f.quick, "quick", false, "use small windows (smoke test)")
	fs.StringVar(&f.jsonPath, "json", "", "also write machine-readable results to this file")
	fs.StringVar(&f.kernels, "kernels", "IMG,BLK", "timeline: comma-separated kernel abbreviations")
	fs.Int64Var(&f.window, "window", 5000, "timeline: sampling window in cycles")
	fs.Int64Var(&f.cycles, "cycles", 120_000, "timeline: total cycles to trace")
	fs.StringVar(&f.csvPath, "csv", "", "timeline: CSV output path (default stdout)")
	fs.StringVar(&f.csvDir, "csvdir", "", "also write table2.csv, fig3.csv, fig6.csv, figure7c.csv, figmemdecomp.csv and figengineprof.csv here")

	fs.IntVar(&f.parallel, "parallel", 0, "worker pool size for independent simulations (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")

	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve live registry snapshots and the event log over HTTP (e.g. :8080)")
	fs.BoolVar(&f.pprof, "pprof", false, "also mount net/http/pprof under /debug/pprof/ on the -metrics-addr mux")
	fs.Int64Var(&f.profPeriod, "prof-period", 0, "engine self-profiler sampling period in cycles (0 = off; figengineprof defaults to 37)")
	fs.StringVar(&f.chromeTrace, "chrometrace", "", "timeline: also write Chrome trace-event JSON here (chrome://tracing)")
	fs.StringVar(&f.eventsPath, "events", "", "write the structured event log as JSONL to this file at exit")

	fs.StringVar(&f.ledgerDir, "ledger", "", "record every completed run into this content-addressed ledger dir (also enables the `runs` subcommand)")

	fs.Int64Var(&f.digestPeriod, "digest-period", 0, "state-digest recording period in cycles (0 = off; divergence defaults to 1024)")
	fs.StringVar(&f.blackbox, "blackbox", "", "arm the flight recorder and dump a black-box JSON report here if a run panics (requires -digest-period)")
	fs.StringVar(&f.trailA, "trail-a", "", "divergence: first recorded digest trail (JSONL) to compare")
	fs.StringVar(&f.trailB, "trail-b", "", "divergence: second recorded digest trail (JSONL) to compare")
	fs.StringVar(&f.recordTrail, "record-trail", "", "divergence: record this run's digest trail as JSONL here instead of comparing")
	fs.StringVar(&f.policy, "policy", "even", "divergence: co-run policy for recorded/self-check trails")
}

func main() {
	var f flags
	f.register(flag.CommandLine)
	flag.Parse()
	if flag.Arg(0) == "runs" {
		runRunsCmd(f.ledgerDir, flag.Args()[1:])
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wslicer [flags] <experiment>  (see -h)")
		os.Exit(2)
	}

	o := experiments.Defaults()
	if f.quick {
		o = experiments.Quick()
	} else {
		o.IsolationCycles = f.isolation
		o.Sample = f.sample
		o.Warmup = f.warmup
	}
	o.Parallelism = f.parallel
	o.ProfPeriod = f.profPeriod
	o.DigestEvery = f.digestPeriod
	o.BlackBoxPath = f.blackbox
	if err := o.Validate(); err != nil {
		fatal(err)
	}
	if f.blackbox != "" && f.digestPeriod <= 0 {
		fatal(fmt.Errorf("-blackbox requires -digest-period > 0"))
	}
	if f.pprof && f.metricsAddr == "" {
		fatal(fmt.Errorf("-pprof requires -metrics-addr"))
	}
	// Every run keeps a structured event log; -v renders run summaries to
	// stderr as they land, -events dumps the whole log, -metrics-addr
	// serves it (plus live counter snapshots) over HTTP.
	o.Events = obs.NewEventLog()
	if f.verbose {
		o.Events.OnEvent = renderEvent
	}
	if f.ledgerDir != "" {
		o.Ledger = openLedger(f.ledgerDir)
	}
	if f.metricsAddr != "" {
		o.Hub = obs.NewHub(o.Events)
		var srvOpts []obs.ServerOption
		if f.pprof {
			srvOpts = append(srvOpts, obs.WithPprof())
		}
		srv, err := obs.StartServer(f.metricsAddr, o.Hub, srvOpts...)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# metrics: http://%s/\n", srv.Addr())
	}

	c := newCLI(f, o, os.Stdout)
	start := time.Now()
	var err error
	switch name := flag.Arg(0); name {
	case "timeline":
		err = c.timeline()
	case "divergence":
		c.divergence()
	case "all":
		err = c.runExperiments(experimentNames())
	default:
		err = c.runExperiments([]string{name})
	}
	fmt.Fprintf(os.Stderr, "# elapsed: %v\n", time.Since(start).Round(time.Second))
	if f.jsonPath != "" {
		if err := writeFile(f.jsonPath, c.writeJSON); err != nil {
			fatal(err)
		}
	}
	if f.eventsPath != "" {
		if err := writeFile(f.eventsPath, o.Events.WriteJSONL); err != nil {
			fatal(err)
		}
	}
	if err != nil {
		fatal(err)
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

// writeFile creates path, fills it with write and reports the first error
// of the write and the close, so a short write is never lost.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cli is one invocation: the parsed flags, the one session every
// experiment shares, the shared sweeps and the results -json exports.
type cli struct {
	flags
	o       experiments.Options
	s       *experiments.Session
	ws      []experiments.Workload
	out     io.Writer
	results map[string]any

	pairRows, tripleRows []experiments.Figure6Row
	pairsHaveOracle      bool
}

func newCLI(f flags, o experiments.Options, out io.Writer) *cli {
	ws := experiments.Pairs()
	if f.pairs > 0 && f.pairs < len(ws) {
		ws = ws[:f.pairs]
	}
	return &cli{flags: f, o: o, s: experiments.NewSession(o), ws: ws, out: out, results: map[string]any{}}
}

// pairSweep returns the Figure 6 rows of the selected pairs, sweeping them
// once per invocation. Rows swept with the oracle also serve requests
// without it, so `all` sweeps once and a lone table3 runs no oracle.
func (c *cli) pairSweep(oracle bool) []experiments.Figure6Row {
	if c.pairRows == nil || oracle && !c.pairsHaveOracle {
		c.pairRows = experiments.Figure6From(c.s, c.ws, oracle)
		c.pairsHaveOracle = oracle
	}
	return c.pairRows
}

// tripleSweep returns the Figure 8 rows, sweeping them once per invocation.
func (c *cli) tripleSweep() []experiments.Figure6Row {
	if c.tripleRows == nil {
		c.tripleRows = experiments.Figure8(c.s)
	}
	return c.tripleRows
}

// writeCSV writes name under -csvdir; without -csvdir it does nothing.
func (c *cli) writeCSV(name string, write func(io.Writer) error) error {
	if c.csvDir == "" {
		return nil
	}
	return writeFile(filepath.Join(c.csvDir, name), write)
}

func (c *cli) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.results)
}

// experiment is one section of the evaluation. run computes it, records
// it for -json, prints it and writes its CSV under -csvdir.
type experiment struct {
	name, header string
	run          func(c *cli, w io.Writer) error
}

// experimentTable is the evaluation in the order `all` runs it.
var experimentTable = []experiment{
	{"config", "Table I: baseline configuration", func(c *cli, w io.Writer) error {
		printConfig(w, c.o)
		return nil
	}},
	{"table2", "Table II: benchmark characteristics", func(c *cli, w io.Writer) error {
		rows := experiments.Table2(c.s)
		c.results["table2"] = rows
		fmt.Fprint(w, experiments.FormatTable2(rows))
		return c.writeCSV("table2.csv", func(f io.Writer) error { return experiments.WriteTable2CSV(f, rows) })
	}},
	{"fig1", "Figure 1: stall-cycle breakdown (isolation)", func(c *cli, w io.Writer) error {
		rows := experiments.Figure1(c.s)
		c.results["figure1"] = rows
		fmt.Fprint(w, experiments.FormatFigure1(rows))
		return nil
	}},
	{"fig3", "Figure 3a: performance vs CTA occupancy", func(c *cli, w io.Writer) error {
		curves := experiments.Figure3(c.s)
		c.results["figure3"] = curves
		fmt.Fprint(w, experiments.FormatFigure3(curves))
		return c.writeCSV("fig3.csv", func(f io.Writer) error { return experiments.WriteCurvesCSV(f, curves) })
	}},
	{"fig3b", "Figure 3b: sweet-spot identification (IMG + NN)", func(c *cli, w io.Writer) error {
		ss, err := c.s.Figure3b(kernels.ByAbbr("IMG"), kernels.ByAbbr("NN"))
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatSweetSpot(ss))
		return nil
	}},
	{"fig5", "Figure 5: 5K-cycle sampling window vs long-run behaviour", func(c *cli, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatFigure5(experiments.Figure5(c.s, 10)))
		return nil
	}},
	{"fig6", "Figure 6: multiprogrammed pairs, IPC normalized to Left-Over", func(c *cli, w io.Writer) error {
		rows := c.pairSweep(c.oracle)
		c.results["figure6"] = rows
		c.results["figure6_gmeans"] = experiments.SummarizeFigure6(rows)
		fmt.Fprint(w, experiments.FormatFigure6(rows))
		return c.writeCSV("fig6.csv", func(f io.Writer) error { return experiments.WriteFigure6CSV(f, rows) })
	}},
	{"table3", "Table III: CTA partitions (Warped-Slicer vs Even)", func(c *cli, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatTable3(experiments.Table3(c.s, c.pairSweep(false))))
		return nil
	}},
	{"fig7", "Figure 7: utilization / cache miss rates / stalls", func(c *cli, w io.Writer) error {
		rows := c.pairSweep(false)
		fmt.Fprint(w, experiments.FormatFigure7(
			experiments.Figure7aFrom(c.s, rows),
			experiments.Figure7bFrom(rows),
			experiments.Figure7cFrom(rows)))
		return nil
	}},
	{"fig7c", "Figure 7c: per-benchmark stall breakdown (alone vs shared)", func(c *cli, w io.Writer) error {
		det := experiments.Figure7cDetail(c.s, c.pairSweep(false))
		c.results["figure7c"] = det
		fmt.Fprint(w, experiments.FormatFigure7cDetail(det))
		return c.writeCSV("figure7c.csv", func(f io.Writer) error { return experiments.WriteFigure7cCSV(f, det) })
	}},
	{"figmemdecomp", "Memory-interference decomposition: sampled span stages, alone vs shared", func(c *cli, w io.Writer) error {
		rows := experiments.FigMemDecomp(c.s, c.ws)
		c.results["figmemdecomp"] = rows
		fmt.Fprint(w, experiments.FormatMemDecomp(rows))
		return c.writeCSV("figmemdecomp.csv", func(f io.Writer) error { return experiments.WriteMemDecompCSV(f, rows) })
	}},
	{"figengineprof", "Engine self-profile: phase costs x kernel mix + fast-forward opportunity", func(c *cli, w io.Writer) error {
		// The experiment's point is the phase split, so profiling defaults
		// on here (everywhere else it stays opt-in via -prof-period).
		po := c.o
		if po.ProfPeriod <= 0 {
			po.ProfPeriod = prof.DefaultPeriod
		}
		rows := experiments.FigEngineProf(experiments.NewSession(po), experiments.EngineProfWorkloads(c.ws))
		c.results["figengineprof"] = rows
		fmt.Fprint(w, experiments.FormatEngineProf(rows))
		return c.writeCSV("figengineprof.csv", func(f io.Writer) error { return experiments.WriteEngineProfCSV(f, rows) })
	}},
	{"fig8", "Figure 8: three kernels per SM", func(c *cli, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatFigure8(c.tripleSweep()))
		return nil
	}},
	{"fig9", "Figure 9: fairness and ANTT", func(c *cli, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatFigure9(experiments.Figure9(c.s, c.pairSweep(false), c.tripleSweep())))
		return nil
	}},
	{"energy", "§V-G: energy and power", func(c *cli, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatEnergy(experiments.Energy(c.s, c.pairSweep(false))))
		return nil
	}},
	{"fig10", "Figure 10: sensitivity analysis (pair subset)", func(c *cli, w io.Writer) error {
		// Figure 10 re-runs the dynamic policy under many controller
		// settings; every third pair keeps the sweep tractable on one core.
		var ws []experiments.Workload
		for i := 0; i < len(c.ws); i += 3 {
			ws = append(ws, c.ws[i])
		}
		fmt.Fprint(w, experiments.FormatFigure10(experiments.Figure10a(c.o, ws), experiments.Figure10b(c.o, ws)))
		return nil
	}},
	{"bigsm", "§V-H: large-SM configuration", func(c *cli, w io.Writer) error {
		lo := c.o
		lo.Cfg = config.LargeSM()
		fmt.Fprint(w, experiments.FormatBigSM(experiments.BigSM(lo, c.ws)))
		return nil
	}},
	{"overhead", "§V-I: hardware overhead", func(c *cli, w io.Writer) error {
		fmt.Fprint(w, experiments.FormatOverhead(power.Overhead(c.o.Cfg.NumSMs)))
		return nil
	}},
	{"report", "Paper-vs-measured report", func(c *cli, w io.Writer) error {
		pairs, triples := c.pairSweep(c.oracle), c.tripleSweep()
		rep := experiments.BuildReport(pairs, triples,
			experiments.Figure9(c.s, pairs, triples), experiments.Energy(c.s, pairs))
		c.results["report"] = rep
		fmt.Fprint(w, rep.Format())
		return nil
	}},
}

// experimentNames lists the table's names in order: what `all` runs.
func experimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// runExperiments runs the named table entries in order, one section each,
// with a blank line between sections. A failing entry prints its error in
// its section and the next entry still runs; the result reports how many
// failed. An unknown name fails before anything runs.
func (c *cli) runExperiments(names []string) error {
	byName := map[string]experiment{}
	for _, e := range experimentTable {
		byName[e.name] = e
	}
	var todo []experiment
	for _, n := range names {
		e, ok := byName[n]
		if !ok {
			return fmt.Errorf("unknown experiment %q", n)
		}
		todo = append(todo, e)
	}
	failed := 0
	for i, e := range todo {
		if i > 0 {
			fmt.Fprintln(c.out)
		}
		header(c.out, e.header)
		if err := e.run(c, c.out); err != nil {
			fmt.Fprintln(c.out, "error:", err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(todo))
	}
	return nil
}

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

// divergence is the first-divergence bisector entry point. Three modes:
// compare two recorded trail files, record a trail, or (default)
// self-check that a serial and a parallel session produce identical
// digest trails for the same co-run. Exits 1 on divergence.
func (c *cli) divergence() {
	every := c.digestPeriod
	if every <= 0 {
		every = gpu.DefaultDigestEvery
	}
	specs := parseKernels(c.kernels)

	switch {
	case c.trailA != "" || c.trailB != "":
		if c.trailA == "" || c.trailB == "" {
			fatal(fmt.Errorf("divergence: -trail-a and -trail-b must both be set"))
		}
		a, b := readTrail(c.trailA), readTrail(c.trailB)
		d, ok := divergence.Trails(a, b)
		c.verdict(d, ok, fmt.Sprintf("%s vs %s (%d vs %d records)",
			c.trailA, c.trailB, len(a.Records), len(b.Records)))

	case c.recordTrail != "":
		t := c.s.DigestTrail(specs, c.policy, nil, every)
		if err := writeFile(c.recordTrail, t.WriteJSONL); err != nil {
			fatal(err)
		}
		fmt.Fprintf(c.out, "recorded %d digest records (period %d, chain %s) to %s\n",
			len(t.Records), every, t.Chain(), c.recordTrail)

	default:
		header(c.out, "Divergence self-check: serial vs parallel session")
		d, ok := divergence.ParallelSerial(c.o, specs, c.policy, nil, every)
		c.verdict(d, ok, fmt.Sprintf("serial vs parallel, policy %q, workload %s, period %d",
			c.policy, experiments.WorkloadName(specs), every))
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

// verdict prints a bisection verdict and exits 1 on divergence.
func (c *cli) verdict(d digest.Divergence, ok bool, label string) {
	if !ok {
		fmt.Fprintf(c.out, "identical: %s\n", label)
		return
	}
	fmt.Fprintf(c.out, "DIVERGED (%s): %s\n", label, d)
	os.Exit(1)
}

// timeline traces a Warped-Slicer co-run window by window: CSV to stdout
// (or -csv), plus an optional Chrome trace.
func (c *cli) timeline() error {
	switch {
	case c.window <= 0:
		return fmt.Errorf("timeline: -window = %d, must be positive", c.window)
	case c.cycles <= 0:
		return fmt.Errorf("timeline: -cycles = %d, must be positive", c.cycles)
	}
	tl, r := c.s.Timeline(parseKernels(c.kernels), c.window, c.cycles)
	var err error
	if c.csvPath == "" {
		err = tl.WriteCSV(c.out)
	} else {
		err = writeFile(c.csvPath, tl.WriteCSV)
	}
	if err != nil {
		return err
	}
	if c.chromeTrace != "" {
		if err := writeFile(c.chromeTrace, tl.WriteChromeTrace); err != nil {
			return err
		}
	}
	if len(r.Partition) > 0 {
		fmt.Fprintf(os.Stderr, "# partition: %v\n", r.Partition)
	}
	if rep, ok := c.o.Events.First(obs.EvRepartition); ok {
		fmt.Fprintf(os.Stderr, "# repartition landed at cycle %d\n", rep.Cycle)
	}
	return nil
}

func printConfig(w io.Writer, o experiments.Options) {
	g := o.Cfg
	fmt.Fprintf(w, "Compute Units      %d, %dMHz, SIMT Width = %dx2\n", g.NumSMs, g.CoreClockMHz, g.SM.SIMTWidth)
	fmt.Fprintf(w, "Resources / Core   max %d Threads, %d Registers\n", g.SM.MaxThreads, g.SM.Registers)
	fmt.Fprintf(w, "                   max %d CTAs, %dKB Shared Memory\n", g.SM.MaxCTAs, g.SM.SharedMemBytes/1024)
	fmt.Fprintf(w, "Warp Schedulers    %d per SM, default gto\n", g.SM.Schedulers)
	fmt.Fprintf(w, "L1 Data Cache      %dKB %d-way %d MSHR\n", g.L1.SizeBytes/1024, g.L1.Assoc, g.L1.MSHRs)
	fmt.Fprintf(w, "L2 Cache           %dKB/Memory Channel, %d-way\n", g.L2.SizeBytes/1024, g.L2.Assoc)
	fmt.Fprintf(w, "Memory Model       %d MCs, FR-FCFS, %dMHz\n", g.Memory.Channels, g.MemClockMHz)
	fmt.Fprintf(w, "GDDR5 Timing       tCL=%d tRP=%d tRC=%d tRAS=%d tRCD=%d tRRD=%d\n",
		g.Memory.TCL, g.Memory.TRP, g.Memory.TRC, g.Memory.TRAS, g.Memory.TRCD, g.Memory.TRRD)
	fmt.Fprintf(w, "Windows            isolation=%d warmup=%d sample=%d\n", o.IsolationCycles, o.Warmup, o.Sample)
}

func header(w io.Writer, s string) {
	fmt.Fprintln(w, "==== "+s+" ====")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wslicer:", err)
	os.Exit(1)
}
