package experiments

import (
	"testing"

	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
)

// TestSessionEmitsRunEvents checks the structured run log replaces the old
// printf progress plumbing: every isolation and co-run lands a summary
// event, and the dynamic policy's decision trail is threaded through.
func TestSessionEmitsRunEvents(t *testing.T) {
	o := Quick()
	o.Events = obs.NewEventLog()
	s := NewSession(o)
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}

	r := s.CoRun(specs, "dynamic")

	iso := o.Events.Filter(obs.EvIsolationDone)
	if len(iso) != 2 {
		t.Fatalf("isolation_done events = %d, want 2", len(iso))
	}
	names := map[any]bool{iso[0].Data["kernel"]: true, iso[1].Data["kernel"]: true}
	if !names["IMG"] || !names["BLK"] {
		t.Fatalf("isolation_done kernels = %v", names)
	}
	// Cached isolations must not re-emit.
	s.Isolation(specs[0])
	if got := len(o.Events.Filter(obs.EvIsolationDone)); got != 2 {
		t.Fatalf("cached isolation re-emitted: %d events", got)
	}

	done, ok := o.Events.First(obs.EvCoRunDone)
	if !ok {
		t.Fatal("no corun_done event")
	}
	if done.Data["policy"] != "dynamic" || done.Data["workload"] != "IMG_BLK" {
		t.Fatalf("corun_done data = %v", done.Data)
	}
	if c, _ := done.Data["cycles"].(int64); c != r.Cycles {
		t.Fatalf("corun_done cycles = %v, want %d", done.Data["cycles"], r.Cycles)
	}

	// The dynamic controller's decision trail rides the same log.
	if _, ok := o.Events.First(obs.EvDecision); !ok {
		t.Fatal("dynamic co-run logged no controller decision")
	}
	if _, ok := o.Events.First(obs.EvKernelDone); !ok {
		t.Fatal("no kernel_done lifecycle events from the instrumented GPU")
	}
}

// TestSessionEventsRunScoped checks that every event a session emits into
// the shared log carries its run's scope tag, so concurrent runs' trails
// stay attributable.
func TestSessionEventsRunScoped(t *testing.T) {
	o := Quick()
	o.Events = obs.NewEventLog()
	s := NewSession(o)
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}

	s.CoRun(specs, "dynamic")

	for _, ev := range o.Events.Filter(obs.EvIsolationDone) {
		want := "iso/" + ev.Data["kernel"].(string)
		if ev.Run != want {
			t.Fatalf("isolation_done run = %q, want %q", ev.Run, want)
		}
	}
	done, _ := o.Events.First(obs.EvCoRunDone)
	if done.Run != "corun/dynamic/IMG_BLK" {
		t.Fatalf("corun_done run = %q", done.Run)
	}
	// The controller's decision trail and the GPU's lifecycle events ride
	// the same scope as the co-run that produced them.
	for _, kind := range []string{obs.EvDecision, obs.EvKernelDone} {
		ev, ok := o.Events.First(kind)
		if !ok {
			t.Fatalf("no %s event", kind)
		}
		if ev.Run != "corun/dynamic/IMG_BLK" {
			t.Fatalf("%s run = %q, want corun/dynamic/IMG_BLK", kind, ev.Run)
		}
	}
	// No event may escape unscoped: every simulation runs under WithRun.
	for _, ev := range o.Events.Events() {
		if ev.Run == "" {
			t.Fatalf("unscoped event: %+v", ev)
		}
	}
}

// TestSessionHubPublishesSnapshots checks the Hub wiring: a session with a
// hub publishes registry snapshots while runs execute.
func TestSessionHubPublishesSnapshots(t *testing.T) {
	o := Quick()
	o.Hub = obs.NewHub(nil)
	s := NewSession(o)

	s.Isolation(kernels.ByAbbr("IMG"))

	snap := o.Hub.Snapshot()
	if snap == nil {
		t.Fatal("hub never received a snapshot")
	}
	if snap.Get("ws_gpu_cycle") <= 0 {
		t.Fatal("published snapshot has no cycle counter")
	}
	if snap.Get(obs.Label("ws_kernel_thread_insts_total", "kernel", "0")) <= 0 {
		t.Fatal("published snapshot has no kernel instruction counter")
	}
}
