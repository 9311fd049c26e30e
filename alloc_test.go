package warpedslicer_bench

import (
	"testing"

	"warpedslicer/internal/config"
	"warpedslicer/internal/gpu"
	"warpedslicer/internal/kernels"
	"warpedslicer/internal/policy"
)

// TestStepAllocatesNothingInSteadyState pins the hot-path allocation
// contract (DESIGN.md): once a GPU has warmed up, a gpu.Step allocates
// nothing, whether the SMs issue (MM alone) or the memory hierarchy is
// busy (MM+BFS under the even partition). testing.AllocsPerRun reports
// the integer mean over the window, so a ring doubling to a new peak or a
// CTA launch (which builds its warps) amortizes to 0; any per-cycle
// allocation reads as at least 1.
func TestStepAllocatesNothingInSteadyState(t *testing.T) {
	for _, c := range []struct {
		name    string
		kernels []string
		d       gpu.Dispatcher
	}{
		{"MM", []string{"MM"}, policy.FCFS{}},
		{"MM+BFS even", []string{"MM", "BFS"}, policy.Even{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := gpu.New(config.Baseline(), c.d)
			for _, k := range c.kernels {
				g.AddKernel(kernels.ByAbbr(k), 0)
			}
			g.RunCycles(4096)
			if n := testing.AllocsPerRun(2000, g.Step); n != 0 {
				t.Fatalf("gpu.Step allocates %v times per cycle after warm-up, want 0", n)
			}
		})
	}
}
