// Command wsbench is the repository benchmark. It runs the paper's
// multiprogrammed co-run workloads through the public experiments.Session
// API, checks that the simulated outputs repeat exactly, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) with
// their units; the last line of standard output is one JSON object.
//
// Run it from the repository root:
//
//	bash wsbench/run.sh --workload compute_corun --seed 1 --seconds 30 --trace 0
//
// Every pass of a workload runs in its own process, so each pass pays
// process start-up and set-up as a user's run does, and its CPU time and
// peak resident memory come from the operating system's accounting of
// that process alone. METRICS.md lists the metrics and the moves each
// per-layer metric is predicted to cause.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"warpedslicer/internal/experiments"
)

const (
	// minPasses is the fewest timed passes a run makes, so each reported
	// figure is a median of at least three.
	minPasses = 3
	// setupProbes is how many set-up-only processes run before each
	// timed pass; with the passes' own set-ups they give setup_s a median
	// over at least 3 × (setupProbes+1) samples.
	setupProbes = 5
	// scratchDir is where passes keep ledgers and the traced run writes
	// its spans, relative to the repository root.
	scratchDir = ".bench_build/wsbench"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: compute_corun, memory_corun or oracle_ledger")
		seed    = flag.Int64("seed", 1, "seed that picks and orders the workload's kernel pairs")
		seconds = flag.Int("seconds", 30, "seconds the timed passes may take (at least 3 run)")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a separate traced run instead")
		child   = flag.String("child", "", "internal: run one pass (pass) or only its set-up (setup)")
		workers = flag.Int("workers", 1, "internal: session worker count for -child")
		traced  = flag.Bool("traced", false, "internal: trace the -child pass")
		ledger  = flag.String("ledger-dir", "", "internal: fresh ledger directory for -child")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	pairs := w.draw(rand.New(rand.NewSource(*seed)))
	switch *child {
	case "":
		err = orchestrate(w, pairs, *seed, *seconds, *trace == 1)
	case "setup":
		err = childSetup(w, *workers, *ledger)
	case "pass":
		err = childPass(w, pairs, *workers, *traced, *ledger)
	default:
		err = fmt.Errorf("unknown -child %q", *child)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wsbench:", err)
	os.Exit(1)
}

// childSetup does everything a pass does before its first simulation,
// then reports when that simulation would have started.
func childSetup(w workload, workers int, ledgerDir string) error {
	if _, _, err := newSession(w, workers, false, ledgerDir); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(passResult{FirstSimNs: time.Now().UnixNano()})
}

func childPass(w workload, pairs []experiments.Workload, workers int, traced bool, ledgerDir string) error {
	res, err := runPass(w, pairs, workers, traced, ledgerDir)
	if err != nil {
		return err
	}
	if traced && !w.ledger {
		res.Kinds = kindsFromSpans(res.Spans)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// pass is one pass process as the orchestrator saw it.
type pass struct {
	res     passResult
	workers int
	wall    float64 // seconds from spawning the process to its exit
	cpu     float64 // user+system seconds of the process
	rssMB   float64 // peak resident set
	setup   float64 // seconds from spawning to the first simulation
	// steal is the share of the machine's CPU time the hypervisor gave
	// to other guests while the pass ran: a diagnostic for noisy runs.
	steal float64
}

// cpuTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable).
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// runner spawns pass processes of one workload run.
type runner struct {
	exe  string
	args []string // -workload and -seed
	dir  string   // this run's scratch directory
	n    int      // processes spawned, for fresh ledger directories
}

func (r *runner) spawn(mode string, workers int, traced bool) (pass, error) {
	r.n++
	ledgerDir := filepath.Join(r.dir, "ledger-"+strconv.Itoa(r.n))
	defer removeAll(ledgerDir)
	args := append(append([]string(nil), r.args...), "-child", mode, "-workers", strconv.Itoa(workers),
		"-traced="+strconv.FormatBool(traced), "-ledger-dir", ledgerDir)
	cmd := exec.Command(r.exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	steal0, total0 := cpuTicks()
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return pass{}, fmt.Errorf("%s process: %w", mode, err)
	}
	p := pass{workers: workers, wall: time.Since(start).Seconds()}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		p.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	if err := json.Unmarshal(out.Bytes(), &p.res); err != nil {
		return pass{}, fmt.Errorf("%s process output: %w", mode, err)
	}
	p.setup = float64(p.res.FirstSimNs-start.UnixNano()) / 1e9
	st := cmd.ProcessState
	p.cpu = (st.UserTime() + st.SystemTime()).Seconds()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024
	}
	return p, nil
}

// orchestrate runs the workload's passes, checks them, and prints the
// report. Timed runs repeat set-up probes and passes until the time is
// up; a traced run makes a fixed set of passes and layer measurements.
func orchestrate(w workload, pairs []experiments.Workload, seed int64, seconds int, traced bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	root, err := filepath.Abs(scratchDir)
	if err != nil {
		return err
	}
	dir := filepath.Join(root, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer removeAll(dir)
	r := &runner{exe: exe, args: []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}, dir: dir}
	fmt.Printf("workload %s seed %d pairs %v\n", w.name, seed, pairNames(pairs))

	if !traced {
		var passes []pass
		var setups []float64
		start := time.Now()
		budget := time.Duration(seconds) * time.Second
		// Start another pass only while one more, at the mean pass time
		// so far, still ends within the budget.
		for len(passes) < minPasses || time.Since(start)*time.Duration(len(passes)+1) <= budget*time.Duration(len(passes)) {
			for i := 0; i < setupProbes; i++ {
				p, err := r.spawn("setup", w.workers, false)
				if err != nil {
					return err
				}
				setups = append(setups, p.setup)
			}
			p, err := r.spawn("pass", w.workers, false)
			if err != nil {
				return err
			}
			passes = append(passes, p)
			setups = append(setups, p.setup)
		}
		return report(w, passes, endToEnd(passes, setups))
	}

	layers, err := measureLayers(w, pairs, dir)
	if err != nil {
		return err
	}
	base, err := r.spawn("pass", 1, false)
	if err != nil {
		return err
	}
	tr, err := r.spawn("pass", 1, true)
	if err != nil {
		return err
	}
	passes := []pass{base, tr}
	pool := tr
	if w.workers > 1 {
		if pool, err = r.spawn("pass", w.workers, false); err != nil {
			return err
		}
		passes = append(passes, pool)
	}
	perLayer(layers, base, tr, pool)
	if err := writeTrace(root, w, seed, tr, layers); err != nil {
		return err
	}
	return report(w, passes, layers)
}

// endToEnd takes the median of each end-to-end metric over the passes.
func endToEnd(passes []pass, setups []float64) map[string]float64 {
	get := func(f func(p pass) float64) float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = f(p)
		}
		return medianOf(vs)
	}
	return map[string]float64{
		"wall_s":     get(func(p pass) float64 { return p.wall }),
		"cpu_s":      get(func(p pass) float64 { return p.cpu }),
		"setup_s":    medianOf(setups),
		"max_rss_mb": get(func(p pass) float64 { return p.rssMB }),
		"sim_kcycles_per_cpu_s": get(func(p pass) float64 {
			return float64(p.res.Cycles) / p.cpu / 1e3
		}),
		"sim_dynamic_over_even": get(func(p pass) float64 { return p.res.DynOverEven }),
	}
}

// perLayer adds the pass-derived per-layer metrics: the simulated
// counters, the per-kind rollup and the trace's self times. The run
// counts, busy time and pool use come from the pass at the workload's
// own worker count (wall time only: at more than one worker, CPU time
// read per run also counts the other workers); per-kind CPU comes only
// from the one-worker traced pass.
func perLayer(m map[string]float64, base, tr, pool pass) {
	s := tr.res.Sim
	m["sm.sched_fastpath_frac"] = ratio(s.SchedFast, s.Slots)
	m["sm.issuing_frac"] = ratio(s.CycIssuing, s.SMCycles)
	m["sm.stall_unknown_frac"] = ratio(s.CycStallUnknown, s.SMCycles)
	m["cache.l1_miss_rate"] = ratio(s.L1Miss, s.L1Loads)
	m["cache.l2_miss_rate"] = ratio(s.L2Miss, s.L2Loads)
	m["dram.bw_util"] = ratio(s.BusBusy, s.MemTicks)

	var busy float64
	for _, kind := range []string{"iso", "corun", "oracle_search", "oracle_final"} {
		k, c := pool.res.Kinds[kind], tr.res.Kinds[kind]
		m["experiments."+kind+".runs"] = float64(k.Runs)
		m["experiments."+kind+".busy_s"] = float64(k.Wall) / 1e9
		m["experiments."+kind+".cpu_s"] = float64(c.CPUNs) / 1e9
		busy += float64(k.Wall) / 1e9
	}
	m["experiments.pool_busy_frac"] = busy / (float64(pool.workers) * pool.wall)
	for layer, v := range selfTimes(tr.res.Spans) {
		m["trace."+layer+".self_s"] = v
	}
	m["trace_overhead_frac"] = tr.cpu/base.cpu - 1
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeTrace writes the traced pass's spans and the layer metrics.
func writeTrace(root string, w workload, seed int64, tr pass, layers map[string]float64) error {
	dir := filepath.Join(root, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": w.name, "seed": seed, "pairs": tr.res.Pairs,
		"spans": tr.res.Spans, "layers": layers,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	fmt.Println("spans written to", path)
	return os.WriteFile(path, data, 0o644)
}

// report checks the passes against each other, prints every metric with
// its unit, and ends with the result JSON line. Every pass of a seed must
// produce the same result digest; a pass that does not counts all its
// simulations as failed.
func report(w workload, passes []pass, metrics map[string]float64) error {
	attempted, failed := 0, 0
	ref := passes[0].res.Digest
	for i, p := range passes {
		attempted += p.res.Attempted
		failed += p.res.Failed
		for _, f := range p.res.Failures {
			fmt.Println("FAILED:", f)
		}
		if p.res.Digest != ref {
			fmt.Printf("FAILED: pass %d result digest %s != pass 0 digest %s\n", i, p.res.Digest, ref)
			failed += p.res.Attempted - p.res.Failed
		}
		fmt.Printf("pass %d: workers %d wall %.3fs cpu %.3fs rss %.1fMB setup %.4fs steal %.1f%% sims %d cycles %d digest %s\n",
			i, p.workers, p.wall, p.cpu, p.rssMB, p.setup, 100*p.steal, p.res.Attempted, p.res.Cycles, p.res.Digest)
	}
	if attempted == 0 {
		return errors.New("no simulation was attempted")
	}
	fmt.Printf("%-36s %s\n", "sim_result_digest", ref)
	fmt.Printf("%-36s %.6g %s\n", "failed_frac", float64(failed)/float64(attempted), "ratio")
	if w.oracle {
		fmt.Printf("%-36s %.6g %s\n", "sim_dynamic_over_oracle", medianOf(dynOverOracle(passes)), "ratio")
	}
	out := map[string]metric{}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u := unitOf(n)
		out[n] = metric{Value: metrics[n], Unit: u}
		fmt.Printf("%-36s %.6g %s\n", n, metrics[n], u)
	}
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func dynOverOracle(passes []pass) []float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = p.res.DynOverOracle
	}
	return vs
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case name == "sim_kcycles_per_cpu_s":
		return "kcycles/s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.Contains(name, "allocs"), strings.HasSuffix(name, ".runs"):
		return "count"
	case strings.Contains(name, "bytes"):
		return "B"
	case strings.HasSuffix(name, "_ns"), strings.HasSuffix(name, "ns_per_cycle"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	default:
		return "ratio"
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
