package dram

import (
	"testing"

	"warpedslicer/internal/statstest"
)

// TestStatsFieldListCoversEveryCounter pins the single field list that
// Channel.Register and Channel.DigestInto loop over: every counter is in
// it exactly once, with a series name.
func TestStatsFieldListCoversEveryCounter(t *testing.T) {
	var s Stats
	fs := s.fields()
	statstest.CheckFieldList(t, &s, fs[:], statsNames[:])
}
