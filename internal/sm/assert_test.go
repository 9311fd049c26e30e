//go:build simassert

package sm

import (
	"testing"

	"warpedslicer/internal/warp"
)

// TestStaleTrackerReferencePanics pins the poison on recycled load
// trackers: a line completion through a reference kept past the load's
// last line must fail under -tags simassert, not write back into the
// load that reuses the tracker.
func TestStaleTrackerReferencePanics(t *testing.T) {
	s, _ := newSM(t)
	tr := s.newTracker(&resident{w: &warp.Warp{}}, 1, 1)
	s.lineDone(tr)
	defer func() {
		if recover() == nil {
			t.Fatal("line completion on a recycled tracker must panic under simassert")
		}
	}()
	s.lineDone(tr)
}
