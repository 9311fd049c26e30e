package sm

import (
	"testing"

	"warpedslicer/internal/statstest"
)

// TestStatsFieldListCoversEveryCounter pins the single field lists that
// Add, EmitObs and digestStats loop over: every Stats and KernelStats
// counter is in its list exactly once, with a series name, and
// SchedFastSlots is the Stats list's last entry, which digestStats skips.
func TestStatsFieldListCoversEveryCounter(t *testing.T) {
	var st Stats
	fs := st.fields()
	statstest.CheckFieldList(t, &st, fs[:], statsNames[:])
	if fs[len(fs)-1] != &st.SchedFastSlots {
		t.Error("SchedFastSlots must be the last Stats field-list entry: digestStats excludes it")
	}

	var ks KernelStats
	kfs := ks.fields()
	statstest.CheckFieldList(t, &ks, kfs[:], kernelStatsNames[:])
}
