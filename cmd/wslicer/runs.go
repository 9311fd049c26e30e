package main

import (
	"fmt"
	"os"
	"syscall"
	"time"

	"warpedslicer/internal/divergence"
	"warpedslicer/internal/runlog"
)

// openLedger opens (or creates) the run ledger and wires the process
// clocks into it. The sim side of the tree never reads a clock; the
// journal's wall/CPU columns come from here.
func openLedger(dir string) *runlog.Ledger {
	led, err := runlog.Open(dir)
	if err != nil {
		fatal(err)
	}
	led.WallNow = func() int64 { return time.Now().UnixNano() }
	led.CPUNow = cpuNowNs
	return led
}

// cpuNowNs is the process's cumulative user+system CPU time. The journal
// records CPU cost alongside wall time because wall deltas on shared
// machines include stretches where the process was not scheduled.
func cpuNowNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runRunsCmd is the `wslicer -ledger DIR runs <list|show|diff>` entry
// point: the CLI surface over the content-addressed run ledger.
func runRunsCmd(dir string, args []string) {
	if dir == "" {
		fatal(fmt.Errorf("runs: -ledger DIR is required"))
	}
	led, err := runlog.Open(dir)
	if err != nil {
		fatal(err)
	}
	sub := "list"
	if len(args) > 0 {
		sub = args[0]
		args = args[1:]
	}
	switch sub {
	case "list":
		runsList(led)
	case "show":
		if len(args) != 1 {
			fatal(fmt.Errorf("usage: wslicer -ledger DIR runs show <key>"))
		}
		runsShow(led, args[0])
	case "diff":
		if len(args) != 2 {
			fatal(fmt.Errorf("usage: wslicer -ledger DIR runs diff <key-a> <key-b>"))
		}
		runsDiff(led, args[0], args[1])
	default:
		fatal(fmt.Errorf("runs: unknown subcommand %q (want list, show or diff)", sub))
	}
}

func runsList(led *runlog.Ledger) {
	v := led.View()
	fmt.Printf("ledger %s: %d runs (%d appended, %d deduped by this process)\n",
		v.Dir, len(v.Runs), v.Appends, v.DedupHits)
	if len(v.Runs) == 0 {
		return
	}
	fmt.Printf("%-16s %-10s %-18s %-10s %12s %8s %10s\n",
		"key", "kind", "workload", "policy", "cycles", "ipc", "wall")
	for _, e := range v.Runs {
		wall := "-"
		if e.WallNs > 0 {
			wall = time.Duration(e.WallNs).Round(time.Millisecond).String()
		}
		timeout := ""
		if e.Timeout {
			timeout = "  (timeout)"
		}
		fmt.Printf("%-16s %-10s %-18s %-10s %12d %8.2f %10s%s\n",
			e.Key, e.Kind, e.Workload, e.Policy, e.Cycles, e.IPC, wall, timeout)
	}
}

func runsShow(led *runlog.Ledger, key string) {
	rec, err := led.Get(key)
	if err != nil {
		fatal(err)
	}
	data, err := runlog.MarshalRecord(rec)
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stdout.Write(data); err != nil {
		fatal(err)
	}
	if led.HasTrail(rec.Key) {
		fmt.Fprintf(os.Stderr, "# digest trail stored: wslicer -ledger %s runs diff %s <other> bisects automatically\n",
			led.Dir(), rec.Key)
	}
}

// runsDiff compares two records' metrics and series, and — when both runs
// stored digest trails — hands the pair to the first-divergence bisector
// for a cycle-exact verdict.
func runsDiff(led *runlog.Ledger, keyA, keyB string) {
	a, err := led.Get(keyA)
	if err != nil {
		fatal(err)
	}
	b, err := led.Get(keyB)
	if err != nil {
		fatal(err)
	}
	d := runlog.Diff(a, b)
	fmt.Print(runlog.FormatDiff(d))

	if !d.ChainDiffers || !led.HasTrail(a.Key) || !led.HasTrail(b.Key) {
		return
	}
	ta, err := led.Trail(a.Key)
	if err != nil {
		fatal(err)
	}
	tb, err := led.Trail(b.Key)
	if err != nil {
		fatal(err)
	}
	if div, ok := divergence.Trails(ta, tb); ok {
		fmt.Printf("bisector: %s\n", div)
	} else {
		fmt.Println("bisector: stored digest trails are identical")
	}
}
