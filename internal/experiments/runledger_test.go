package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"warpedslicer/internal/kernels"
	"warpedslicer/internal/obs"
	"warpedslicer/internal/runlog"
)

func ledgerSession(t *testing.T, parallelism int) (*Session, *runlog.Ledger) {
	t.Helper()
	led, err := runlog.Open(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	o := Quick()
	o.Events = obs.NewEventLog()
	o.Ledger = led
	o.Parallelism = parallelism
	return NewSession(o), led
}

// readRecords loads every canonical record file keyed by name.
func readRecords(t *testing.T, led *runlog.Ledger) map[string][]byte {
	t.Helper()
	dir := filepath.Join(led.Dir(), "records")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestLedgerRecordsRuns checks the session-to-ledger wiring end to end: a
// co-run session lands one record per completed simulation (two isolation
// references plus the co-run), with the headline metrics the ISSUE calls
// out persisted, and identical inputs deduping on a re-run.
func TestLedgerRecordsRuns(t *testing.T) {
	s, led := ledgerSession(t, 1)
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
	s.CoRun(specs, "even")

	runs := led.List()
	if len(runs) != 3 {
		t.Fatalf("ledger has %d runs, want 2 isolations + 1 co-run: %+v", len(runs), runs)
	}
	kinds := map[string]int{}
	for _, e := range runs {
		kinds[e.Kind]++
	}
	if kinds["iso"] != 2 || kinds["corun"] != 1 {
		t.Fatalf("run kinds = %v", kinds)
	}

	for _, e := range runs {
		rec, err := led.Get(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"ipc", "sched_fastpath_frac", "fast_forward_skippable_frac"} {
			if _, ok := rec.Metric(name); !ok {
				t.Errorf("run %s (%s) missing metric %q", e.Key, e.Kind, name)
			}
		}
		if rec.Series == nil || len(rec.Series.Points) == 0 {
			t.Errorf("run %s (%s) recorded no counter series", e.Key, e.Kind)
		}
	}

	// Re-running the same workload hits only the ledger's dedupe path (the
	// isolation cache already absorbs the references).
	s2 := NewSession(s.O)
	s2.CoRun(specs, "even")
	v := led.View()
	if v.Appends != 3 || len(v.Runs) != 3 {
		t.Fatalf("after re-run: appends %d runs %d, want 3 and 3", v.Appends, len(v.Runs))
	}
	if v.DedupHits == 0 {
		t.Fatal("re-run produced no dedupe hits")
	}
}

// TestLedgerByteIdenticalAcrossParallelism is the tentpole determinism
// gate: serial and 4-way sessions over equal options must produce
// byte-identical record files (the journal differs only in timing and
// append order, which List sorts away).
func TestLedgerByteIdenticalAcrossParallelism(t *testing.T) {
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}

	s1, led1 := ledgerSession(t, 1)
	s1.CoRun(specs, "even")
	s4, led4 := ledgerSession(t, 4)
	s4.CoRun(specs, "even")

	r1, r4 := readRecords(t, led1), readRecords(t, led4)
	if len(r1) == 0 || len(r1) != len(r4) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r4))
	}
	for name, data := range r1 {
		other, ok := r4[name]
		if !ok {
			t.Fatalf("parallel ledger missing record %s", name)
		}
		if !bytes.Equal(data, other) {
			t.Fatalf("record %s differs between parallelism 1 and 4:\n%s\nvs\n%s", name, data, other)
		}
	}

	l1, l4 := led1.List(), led4.List()
	for i := range l1 {
		if l1[i].Key != l4[i].Key {
			t.Fatalf("listing order differs at %d: %s vs %s", i, l1[i].Key, l4[i].Key)
		}
	}
}

// TestLedgerStoresTrailForDigestRuns checks the bisector hand-off: with
// digesting armed, a recorded run's trail lands under trails/<key>.jsonl
// and round-trips with its chain intact.
func TestLedgerStoresTrailForDigestRuns(t *testing.T) {
	s, led := ledgerSession(t, 1)
	s.O.DigestEvery = 1024
	specs := []*kernels.Spec{kernels.ByAbbr("IMG")}
	tr := s.DigestTrail(specs, "even", nil, 1024)
	if len(tr.Records) == 0 {
		t.Fatal("digest run recorded no trail")
	}

	var key string
	for _, e := range led.List() {
		if e.Kind == "digest" {
			key = e.Key
		}
	}
	if key == "" {
		t.Fatalf("no digest-kind run in ledger: %+v", led.List())
	}
	if !led.HasTrail(key) {
		t.Fatal("digest run has no stored trail")
	}
	got, err := led.Trail(key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Chain() != tr.Chain() {
		t.Fatalf("stored trail chain %s, run chain %s", got.Chain(), tr.Chain())
	}
	rec, err := led.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DigestChain != tr.Chain() || rec.DigestRecords == 0 {
		t.Fatalf("record digest summary: chain %s records %d", rec.DigestChain, rec.DigestRecords)
	}
}

// TestLedgerPublishesRunsView checks the Hub side: each recorded run
// refreshes the /runs view with the current ledger listing.
func TestLedgerPublishesRunsView(t *testing.T) {
	s, _ := ledgerSession(t, 1)
	s.O.Hub = obs.NewHub(s.O.Events)
	s.Isolation(kernels.ByAbbr("IMG"))
	v, ok := s.O.Hub.Runs().(runlog.View)
	if !ok {
		t.Fatalf("published runs view is %T", s.O.Hub.Runs())
	}
	if len(v.Runs) != 1 || v.Runs[0].Kind != "iso" {
		t.Fatalf("published view: %+v", v)
	}
}

// TestLedgerCoversEveryEntryPoint checks that every simulation entry
// point records its runs: each appends exactly the expected records, by
// kind, to a fresh ledger.
func TestLedgerCoversEveryEntryPoint(t *testing.T) {
	pair := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
	one := pair[:1]
	combos := len(NewSession(Quick()).feasibleCombos(pair))
	cases := []struct {
		name string
		run  func(s *Session)
		want map[string]int
	}{
		{"Isolation", func(s *Session) { s.Isolation(one[0]) }, map[string]int{"iso": 1}},
		{"CoRun", func(s *Session) { s.CoRun(pair, "even") }, map[string]int{"iso": 2, "corun": 1}},
		{"RunFixedCycles", func(s *Session) { s.RunFixedCycles(pair, "even", nil, 4000) }, map[string]int{"window": 1}},
		{"DigestTrail", func(s *Session) { s.DigestTrail(one, "even", nil, 0) }, map[string]int{"iso": 1, "digest": 1}},
		{"Oracle", func(s *Session) { s.Oracle(pair) },
			map[string]int{"iso": 2, "oracle": combos + 1, "oracle-final": 1}},
		{"FigEngineProf", func(s *Session) { FigEngineProf(s, []Workload{{Specs: one, Category: "single"}}) },
			map[string]int{"engineprof": 1}},
		{"Figure5", func(s *Session) { Figure5(s, 2) }, map[string]int{"fig5": len(kernels.Suite())}},
		{"Timeline", func(s *Session) { s.Timeline(pair, 1000, 4000) }, map[string]int{"timeline": 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, led := ledgerSession(t, 2)
			c.run(s)
			want := 0
			for _, n := range c.want {
				want += n
			}
			if v := led.View(); v.Appends != uint64(want) {
				t.Errorf("appends = %d, want %d", v.Appends, want)
			}
			got := map[string]int{}
			for _, e := range led.List() {
				got[e.Kind]++
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("record kinds = %v, want %v", got, c.want)
			}
		})
	}
}

// TestDigestRecordMatchesCoRunIPC checks that a digest run and the co-run
// it mirrors record the same combined and per-kernel IPC: both take each
// kernel's IPC over its own finish cycle.
func TestDigestRecordMatchesCoRunIPC(t *testing.T) {
	s, led := ledgerSession(t, 1)
	specs := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
	s.CoRun(specs, "even")
	s.DigestTrail(specs, "even", nil, 0)

	recs := map[string]*runlog.RunRecord{}
	for _, e := range led.List() {
		rec, err := led.Get(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		recs[e.Kind] = rec
	}
	co, dg := recs["corun"], recs["digest"]
	if co == nil || dg == nil {
		t.Fatalf("missing corun or digest record: %v", led.List())
	}
	names := []string{"ipc"}
	for i, spec := range specs {
		names = append(names, fmt.Sprintf("ipc[%d:%s]", i, spec.Abbr))
	}
	for _, name := range names {
		want, ok1 := co.Metric(name)
		got, ok2 := dg.Metric(name)
		if !ok1 || !ok2 || got != want {
			t.Errorf("%s: digest record %v (%v), co-run record %v (%v)", name, got, ok2, want, ok1)
		}
	}
}

// TestLedgerKeysRunLengths checks that a run's own length is part of its
// content address: two runs that differ only in one append two records,
// so the second is not deduped away as a copy of the first.
func TestLedgerKeysRunLengths(t *testing.T) {
	pair := []*kernels.Spec{kernels.ByAbbr("IMG"), kernels.ByAbbr("BLK")}
	cases := []struct {
		name string
		kind string
		a, b int64
		run  func(s *Session, n int64)
		want int
	}{
		{"Timeline cycles", "timeline", 2000, 4000, func(s *Session, n int64) { s.Timeline(pair, 1000, n) }, 2},
		{"Timeline window", "timeline", 1000, 2000, func(s *Session, n int64) { s.Timeline(pair, n, 4000) }, 2},
		{"RunFixedCycles", "window", 2000, 4000, func(s *Session, n int64) { s.RunFixedCycles(pair, "even", nil, n) }, 2},
		{"DigestTrail period", "digest", 512, 1024, func(s *Session, n int64) { s.DigestTrail(pair[:1], "even", nil, n) }, 2},
		{"Figure5 windows", "fig5", 2, 3, func(s *Session, n int64) { Figure5(s, int(n)) }, 2 * len(kernels.Suite())},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, led := ledgerSession(t, 2)
			c.run(s, c.a)
			c.run(s, c.b)
			got := 0
			for _, e := range led.List() {
				if e.Kind == c.kind {
					got++
				}
			}
			if got != c.want {
				t.Errorf("%s records = %d, want %d", c.kind, got, c.want)
			}
		})
	}
}
