package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/policy"
)

// TestBlackBoxCarriesObsSnapshot checks that a flight recorder armed with
// no Hub and no Ledger still gets the observability snapshot its black
// box promises, built on demand.
func TestBlackBoxCarriesObsSnapshot(t *testing.T) {
	o := Quick()
	o.DigestEvery = 64
	o.BlackBoxPath = filepath.Join(t.TempDir(), "blackbox.json")
	g := gpu.New(o.Cfg, policy.FCFS{})
	o.Instrument(g)
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.RunCycles(500)

	snap, ok := g.BlackBox("x").Snapshot.(*obs.Snapshot)
	if !ok || snap == nil {
		t.Fatalf("black box snapshot = %#v, want an *obs.Snapshot", g.BlackBox("x").Snapshot)
	}
	if got := snap.Get("ws_gpu_cycle"); !snap.Has("ws_gpu_cycle") || got != 500 {
		t.Fatalf("ws_gpu_cycle = %v (present %v), want 500", got, snap.Has("ws_gpu_cycle"))
	}
}

// TestLedgerRecordsIndependentOfHub checks that the series a ledger keeps
// does not depend on whether a Hub is draining full registry snapshots:
// a co-run recorded with a Hub and one recorded without write
// byte-identical records.
func TestLedgerRecordsIndependentOfHub(t *testing.T) {
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
	bare, ledBare := ledgerSession(t, 1)
	bare.CoRun(specs, "even")
	hub, ledHub := ledgerSession(t, 1)
	hub.O.Hub = obs.NewHub(nil)
	hub.CoRun(specs, "even")

	a, b := readRecords(t, ledBare), readRecords(t, ledHub)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("record counts differ: %d without a Hub, %d with", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Fatalf("record %s differs with a Hub attached:\n%s\nvs\n%s", name, data, b[name])
		}
	}
}

// TestLedgerMonitorAllocatesNothing pins the drained-ledger cost: with a
// Ledger and no Hub, a monitor firing reads the device counters directly
// and closes series points in preallocated storage, so after warm-up it
// allocates nothing — in particular it takes no registry snapshot.
func TestLedgerMonitorAllocatesNothing(t *testing.T) {
	_, led := ledgerSession(t, 1)
	o := Quick()
	o.Ledger = led
	g := gpu.New(o.Cfg, policy.FCFS{})
	o.Instrument(g)
	g.AddKernel(kernels.ByAbbr("MM"), 0)
	g.RunCycles(4 * monitorEvery)
	if g.Monitor == nil {
		t.Fatal("a ledger-armed GPU has no monitor")
	}
	// 300 firings fill the 128-point series and downsample it twice.
	if n := testing.AllocsPerRun(300, func() { g.Monitor(g) }); n != 0 {
		t.Fatalf("a ledger monitor firing allocates %v times, want 0", n)
	}
}
