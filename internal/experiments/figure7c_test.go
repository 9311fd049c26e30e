package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"warpedslicer/internal/sm"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// suiteRows runs the same co-run subset the rest of the suite exercises,
// shared across the tests in this file via the session's caches.
func suiteRows(t *testing.T, s *Session) []Figure6Row {
	t.Helper()
	return Figure6From(s, Pairs()[:2], false)
}

// TestStallConservationOnSuiteCoRuns pins the attribution invariant on
// every co-run (and isolation run) the suite executes: per-kernel stall
// counters sum exactly to the SM-wide classes.
func TestStallConservationOnSuiteCoRuns(t *testing.T) {
	s := quickSession(t)
	rows := suiteRows(t, s)
	checkConservation := func(name string, st sm.Stats) {
		t.Helper()
		var mem, raw, exec, ibuf uint64
		for _, ks := range st.PerKernel {
			mem += ks.StallMem
			raw += ks.StallRAW
			exec += ks.StallExec
			ibuf += ks.StallIBuf
		}
		if mem != st.StallMem || raw != st.StallRAW || exec != st.StallExec || ibuf != st.StallIBuf {
			t.Errorf("%s: per-kernel sums (%d/%d/%d/%d) != SM-wide (%d/%d/%d/%d)",
				name, mem, raw, exec, ibuf, st.StallMem, st.StallRAW, st.StallExec, st.StallIBuf)
		}
	}
	checked := 0
	for _, row := range rows {
		for policy, r := range row.Runs {
			checkConservation(row.Workload+"/"+policy, r.SM)
			checked++
		}
		for _, spec := range row.Runs["leftover"].Specs {
			checkConservation("iso/"+spec.Abbr, s.Isolation(spec).SM)
			checked++
		}
	}
	if checked < 8 {
		t.Fatalf("only %d runs checked; suite subset shrank", checked)
	}
}

func TestFigure7cDetailRows(t *testing.T) {
	s := quickSession(t)
	rows := suiteRows(t, s)
	det := Figure7cDetail(s, rows)
	if len(det) == 0 {
		t.Fatal("no detail rows")
	}
	// Per workload: 2 alone rows + 2 rows per policy (4 policies).
	if want := len(rows) * (2 + 2*4); len(det) != want {
		t.Fatalf("detail rows = %d, want %d", len(det), want)
	}
	perConfig := map[string]int{}
	for _, r := range det {
		perConfig[r.Config]++
		if r.Total < 0 || r.Total > 1 {
			t.Fatalf("%s/%s/%s total %v out of range", r.Workload, r.Kernel, r.Config, r.Total)
		}
		if got := r.Mem + r.RAW + r.Exec + r.IBuf; got != r.Total {
			t.Fatalf("%s/%s/%s total %v != component sum %v", r.Workload, r.Kernel, r.Config, r.Total, got)
		}
	}
	for _, cfg := range []string{"alone", "leftover", "spatial", "even", "dynamic"} {
		if perConfig[cfg] != 2*len(rows) {
			t.Fatalf("config %s has %d rows, want %d (%v)", cfg, perConfig[cfg], 2*len(rows), perConfig)
		}
	}
	// Shared-mode rows of one workload+config sum to the run's SM-wide
	// fractions: the CSV-facing face of the conservation invariant.
	for _, row := range rows {
		for policy, run := range row.Runs {
			var mem float64
			for _, r := range det {
				if r.Workload == row.Workload && r.Config == policy {
					mem += r.Mem
				}
			}
			want := float64(run.SM.StallMem) / float64(run.SM.Slots)
			if diff := mem - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("%s/%s: summed mem fraction %v != SM-wide %v", row.Workload, policy, mem, want)
			}
		}
	}
	if FormatFigure7cDetail(det) == "" {
		t.Fatal("empty format")
	}
}

// TestFigure7cGoldenCSV pins the CSV byte-for-byte: the simulator is
// deterministic, so any drift is a real behavior change. Refresh with
// `go test ./internal/experiments -run Figure7cGolden -update`.
func TestFigure7cGoldenCSV(t *testing.T) {
	s := quickSession(t)
	det := Figure7cDetail(s, Figure6From(s, Pairs()[:1], false))
	var buf bytes.Buffer
	if err := WriteFigure7cCSV(&buf, det); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "figure7c.golden.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("figure7c.golden.csv drifted.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestUtilizationDenominators hand-computes Figure 7a's denominators so a
// config change (unit counts, register file, shared memory) cannot silently
// skew the ratios. The baseline models 16 SMs with 2 ALU pipes, one SFU
// and one LD/ST pipe, 32768 registers and 48KB shared memory per SM.
func TestUtilizationDenominators(t *testing.T) {
	s := quickSession(t)
	cfg := s.O.Cfg
	if cfg.NumSMs != 16 || cfg.SM.ALUUnits != 2 || cfg.SM.Registers != 32768 || cfg.SM.SharedMemBytes != 49152 {
		t.Fatalf("baseline config changed (NumSMs=%d ALUUnits=%d Registers=%d SharedMemBytes=%d); re-derive this test",
			cfg.NumSMs, cfg.SM.ALUUnits, cfg.SM.Registers, cfg.SM.SharedMemBytes)
	}
	var r CoRun
	r.Cycles = 1000
	// cyc = 1000 cycles * 16 SMs = 16000 SM-cycles.
	r.SM.ALUBusy = 8000   // of 16000*2 ALU-unit-cycles -> 0.25
	r.SM.SFUBusy = 4000   // of 16000 SFU-cycles        -> 0.25
	r.SM.LDSTBusy = 12000 // of 16000 LDST-cycles       -> 0.75
	r.SM.RegCycles = 16000 * 16384
	r.SM.ShmCycles = 16000 * 12288
	u := utilization(s, r)
	want := [5]float64{
		0.25,              // ALU: 8000 / (16000 * 2 units)
		0.25,              // SFU: 4000 / 16000 (one unit per SM)
		0.75,              // LDST: 12000 / 16000 (one unit per SM)
		16384.0 / 32768.0, // REG: half the register file, cycle-averaged
		12288.0 / 49152.0, // SHM: a quarter of shared memory
	}
	if u != want {
		t.Fatalf("utilization = %v, want %v", u, want)
	}
	// Zero-cycle runs must not divide by zero.
	if z := utilization(s, CoRun{}); z != ([5]float64{}) {
		t.Fatalf("zero-cycle utilization = %v, want zeros", z)
	}
}
