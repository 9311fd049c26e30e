package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/core"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenRun is the fixed scenario both exporters are pinned to: an IMG+BLK
// co-run under the dynamic controller, long enough to capture the warm-up,
// sampling and the repartition landing. The simulator is deterministic, so
// byte-identical output is a fair contract.
func goldenRun(t *testing.T) *Timeline {
	t.Helper()
	ctrl := core.NewController()
	ctrl.WarmupCycles = 4000
	ctrl.SampleCycles = 2000
	log := obs.NewEventLog()
	ctrl.Log = log
	g := gpu.New(config.Baseline(), ctrl)
	g.Log = log
	g.AddKernel(kernels.ByAbbr("IMG"), 0)
	g.AddKernel(kernels.ByAbbr("BLK"), 0)
	tl := New(2000)
	tl.Events = log
	tl.Run(g, 16000)
	return tl
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/trace -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestWriteCSVGolden(t *testing.T) {
	tl := goldenRun(t)
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline.golden.csv", buf.Bytes())
}

func TestWriteChromeTraceGolden(t *testing.T) {
	tl := goldenRun(t)
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrometrace.golden.json", buf.Bytes())

	// Independent of the golden bytes: the trace must carry the controller's
	// repartition as an instant event so it is visible in chrome://tracing.
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"repartition"`)) {
		t.Error("chrome trace has no repartition instant event")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"name":"warmup"`)) {
		t.Error("chrome trace has no warmup span")
	}
	if bytes.Contains(buf.Bytes(), []byte(`"name":"engine phase ns"`)) {
		t.Error("unprofiled chrome trace has engine phase ns counters")
	}
	// Sampled memory-request spans render as nestable async events plus a
	// flow arrow; a default-period run of this length must trace some.
	for _, marker := range []string{
		`"cat":"span","ph":"b"`, `"cat":"span","ph":"e"`,
		`"cat":"spanflow","ph":"s"`, `"bp":"e"`,
		`"name":"dram"`, `"name":"l2_queue"`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(marker)) {
			t.Errorf("chrome trace missing span marker %s", marker)
		}
	}
}
