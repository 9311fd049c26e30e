package sm

import (
	"fmt"
	"testing"

	"warpedslicer/internal/obs"
)

// TestEmitKernelObsIncludesProgressCounters pins the obsregister fix: the
// per-kernel progress counters (warp/thread instructions, CTA launches and
// completions, loads issued) must appear on the observability surface
// alongside the stall classes, with per-kernel warp instructions summing
// to the SM-wide issued total.
func TestEmitKernelObsIncludesProgressCounters(t *testing.T) {
	var st Stats
	st.Issued = 12
	st.PerKernel[0] = KernelStats{WarpInsts: 7, ThreadInsts: 224, CTAsLaunched: 3, CTAsDone: 2, LoadsIssued: 5}
	st.PerKernel[1] = KernelStats{WarpInsts: 5, ThreadInsts: 160, CTAsLaunched: 1, CTAsDone: 1, LoadsIssued: 2}

	got := map[string]float64{}
	st.EmitObs(func(name string, kind obs.Kind, v float64) {
		got[name] = v
	}, NewSeries())

	want := map[string]float64{
		`ws_sm_kernel_warp_insts_total{kernel="0"}`:    7,
		`ws_sm_kernel_thread_insts_total{kernel="0"}`:  224,
		`ws_sm_kernel_ctas_launched_total{kernel="0"}`: 3,
		`ws_sm_kernel_ctas_done_total{kernel="0"}`:     2,
		`ws_sm_kernel_loads_issued_total{kernel="0"}`:  5,
		`ws_sm_kernel_warp_insts_total{kernel="1"}`:    5,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}

	var warpSum float64
	for k := 0; k < MaxKernels; k++ {
		warpSum += got[fmt.Sprintf(`ws_sm_kernel_warp_insts_total{kernel="%d"}`, k)]
	}
	if warpSum != float64(st.Issued) {
		t.Errorf("per-kernel warp insts sum = %v, want issued = %d", warpSum, st.Issued)
	}
}
