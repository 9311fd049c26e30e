package runlog_test

import (
	"reflect"
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/policy"
	"warpedslicer/internal/runlog"
)

// TestRecorderDirectMatchesSnapshot checks that the two ways of feeding a
// recorder agree exactly: one reads the device counters directly, the
// other reads them out of full registry snapshots, both on the same
// cycles of one GPU and through at least one downsample.
func TestRecorderDirectMatchesSnapshot(t *testing.T) {
	g := gpu.New(config.Baseline(), policy.Even{})
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.AddKernel(kernels.ByAbbr("BFS"), 0)
	reg := obs.NewRegistry()
	g.Register(reg)

	names := runlog.DefaultSeries()
	read, err := g.DeviceCounters(names)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, len(names))
	direct := runlog.NewRecorder(names, 4)
	snapped := runlog.NewRecorder(names, 4)
	for i := 0; i < 12; i++ {
		read(vals)
		direct.Record(g.Now(), vals)
		snapped.Observe(g.Now(), reg.Snapshot())
		g.RunCycles(2048)
	}

	got, want := direct.Series(), snapped.Series()
	if want == nil || want.Downsamples == 0 {
		t.Fatalf("snapshot-fed series %+v never downsampled", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("direct series differs from snapshot series:\n%+v\nvs\n%+v", got, want)
	}
}
