package main

import (
	"bytes"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"warpedslicer/internal/experiments"
)

// TestDocListsEveryExperiment checks that the package comment names the
// table's experiments in order, followed by the commands outside it.
func TestDocListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	start, end := strings.Index(doc, "Experiments"), strings.Index(doc, "Run ledger:")
	if start < 0 || end < start {
		t.Fatalf("package comment lacks the Experiments and Run ledger sections:\n%s", doc)
	}
	var got []string
	for _, line := range strings.Split(doc[start:end], "\n") {
		if strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, "\t ") {
			got = append(got, strings.Fields(line)[0])
		}
	}
	want := append(experimentNames(), "timeline", "divergence", "all")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("package comment lists\n  %v\nwant\n  %v", got, want)
	}
}

// TestRunExperimentsSections runs three table entries through the runner:
// one header per entry, in order, blank lines between the sections, and
// table2's CSV under -csvdir.
func TestRunExperimentsSections(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	c := newCLI(flags{csvDir: dir}, experiments.Quick(), &out)
	if err := c.runExperiments([]string{"config", "table2", "overhead"}); err != nil {
		t.Fatal(err)
	}

	sections := strings.Split(out.String(), "\n\n")
	want := []string{"Table I: baseline configuration", "Table II: benchmark characteristics", "§V-I: hardware overhead"}
	if len(sections) != len(want) {
		t.Fatalf("got %d blank-line-separated sections, want %d:\n%s", len(sections), len(want), out.String())
	}
	for i, h := range want {
		if first, _, _ := strings.Cut(sections[i], "\n"); first != "==== "+h+" ====" {
			t.Errorf("section %d starts %q, want header %q", i, first, h)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "table2.csv")); err != nil || fi.Size() == 0 {
		t.Errorf("table2.csv not written under -csvdir: %v", err)
	}
	if _, ok := c.results["table2"]; !ok {
		t.Error("table2 not recorded for -json")
	}
}

// TestRunExperimentsContinuesPastError checks the runner's error policy:
// a failing entry prints its error in its own section, the next entry
// still runs, and the runner reports the failure so main exits non-zero.
func TestRunExperimentsContinuesPastError(t *testing.T) {
	saved := experimentTable
	t.Cleanup(func() { experimentTable = saved })
	experimentTable = []experiment{
		{"bad", "Bad", func(c *cli, w io.Writer) error {
			fmt.Fprintln(w, "partial")
			return errors.New("boom")
		}},
		{"good", "Good", func(c *cli, w io.Writer) error {
			fmt.Fprintln(w, "ok")
			return nil
		}},
	}

	var out bytes.Buffer
	c := newCLI(flags{}, experiments.Quick(), &out)
	if err := c.runExperiments(experimentNames()); err == nil {
		t.Error("runner reported success with a failing entry")
	}
	const want = "==== Bad ====\npartial\nerror: boom\n\n==== Good ====\nok\n"
	if out.String() != want {
		t.Errorf("output\n%q\nwant\n%q", out.String(), want)
	}
}

// TestRunExperimentsUnknownName checks that a misspelt experiment fails
// before any entry runs.
func TestRunExperimentsUnknownName(t *testing.T) {
	var out bytes.Buffer
	c := newCLI(flags{}, experiments.Quick(), &out)
	if err := c.runExperiments([]string{"overhead", "fig99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if out.Len() != 0 {
		t.Errorf("runner printed before rejecting the name:\n%s", out.String())
	}
}

// TestTimelineRejectsNonPositiveLengths checks that -window and -cycles
// must be positive: no window is silently replaced by a default, and no
// run reaches the ledger under a length it did not use.
func TestTimelineRejectsNonPositiveLengths(t *testing.T) {
	for _, f := range []flags{
		{kernels: "IMG,BLK", window: 0, cycles: 10000},
		{kernels: "IMG,BLK", window: -7, cycles: 10000},
		{kernels: "IMG,BLK", window: 5000, cycles: 0},
	} {
		var out bytes.Buffer
		c := newCLI(f, experiments.Quick(), &out)
		if err := c.timeline(); err == nil {
			t.Errorf("-window %d -cycles %d accepted", f.window, f.cycles)
		}
		if out.Len() != 0 {
			t.Errorf("-window %d -cycles %d printed a timeline:\n%s", f.window, f.cycles, out.String())
		}
	}
}
