// Package obs is the simulator's unified observability layer: a typed
// counter/gauge registry every model layer (sm, cache, dram, mem, gpu)
// registers into, a structured event log for controller decisions, and a
// live HTTP endpoint serving both. It has no dependencies outside the
// standard library and no per-cycle cost: metrics are pull-based closures
// sampled only when a Snapshot is taken, so an attached registry with no
// sink adds nothing to the simulation hot path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
)

// Kind distinguishes monotonic counters from point-in-time gauges and
// histogram components. The Prometheus text exposition uses it for # TYPE
// lines, and windowed consumers (package trace) diff counters between
// snapshots.
type Kind uint8

const (
	// Counter is a monotonically non-decreasing total.
	Counter Kind = iota
	// Gauge is an instantaneous value that may move either way.
	Gauge
	// Histogram marks the component series of one histogram (_bucket,
	// _sum, _count). Buckets are cumulative and monotonic, so snapshot
	// diffs work exactly as for Counter; see Hist.
	Histogram
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Emit is the callback a Collector uses to publish samples.
type Emit func(name string, kind Kind, value float64)

// Registry holds metric sources. Registration happens at wiring time
// (single-threaded); Snapshot may be called repeatedly from the simulation
// loop. The registry never stores values itself — every Snapshot re-reads
// the sources.
type Registry struct {
	mu         sync.Mutex
	funcs      []metricFunc
	collectors []func(Emit)
	names      map[string]struct{}
	// size is the previous snapshot's sample count, the next one's
	// capacity hint.
	size int
}

type metricFunc struct {
	name string
	kind Kind
	fn   func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// Counter registers a monotonic counter source. Duplicate names panic:
// they indicate two layers fighting over one series.
func (r *Registry) Counter(name string, fn func() uint64) {
	r.register(name, Counter, func() float64 { return float64(fn()) })
}

// Gauge registers an instantaneous value source.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.register(name, Gauge, fn)
}

func (r *Registry) register(name string, kind Kind, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = struct{}{}
	r.funcs = append(r.funcs, metricFunc{name: name, kind: kind, fn: fn})
}

// Collector registers a bulk source: one closure that emits many samples
// per snapshot. Layers whose counters live in one stats struct use this so
// the struct is read once per snapshot instead of once per metric.
func (r *Registry) Collector(fn func(Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Sample is one named value in a snapshot.
type Sample struct {
	Name  string  `json:"name"`
	Kind  Kind    `json:"-"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time reading of every registered metric, sorted
// by name. Snapshots are immutable once taken and safe to share across
// goroutines.
type Snapshot struct {
	Samples []Sample

	once sync.Once
	idx  map[string]int
}

// Snapshot reads every source and returns the sorted sample set.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	funcs := r.funcs
	collectors := r.collectors
	size := max(r.size, len(funcs)+16*len(collectors))
	r.mu.Unlock()

	// Sort by (family, full name) so every series of one metric family is
	// consecutive — WritePrometheus emits exactly one # TYPE line each.
	// Each sample's family is cut once, not once per comparison.
	keyed := make([]familySample, 0, size)
	for _, m := range funcs {
		keyed = append(keyed, familySample{family(m.name), Sample{Name: m.name, Kind: m.kind, Value: m.fn()}})
	}
	emit := func(name string, kind Kind, v float64) {
		keyed = append(keyed, familySample{family(name), Sample{Name: name, Kind: kind, Value: v}})
	}
	for _, c := range collectors {
		c(emit)
	}
	slices.SortFunc(keyed, func(a, b familySample) int {
		if c := strings.Compare(a.fam, b.fam); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	r.mu.Lock()
	r.size = len(keyed)
	r.mu.Unlock()
	s := &Snapshot{Samples: make([]Sample, len(keyed))}
	for i := range keyed {
		s.Samples[i] = keyed[i].Sample
	}
	return s
}

// familySample is a sample with its family key, the Snapshot sort key.
type familySample struct {
	fam string
	Sample
}

// family strips the label part of a series name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (s *Snapshot) index() map[string]int {
	s.once.Do(func() {
		s.idx = make(map[string]int, len(s.Samples))
		for i, smp := range s.Samples {
			s.idx[smp.Name] = i
		}
	})
	return s.idx
}

// Get returns the named sample's value, or 0 when absent. Nil snapshots
// read as all-zero so first-window diffs need no special case.
func (s *Snapshot) Get(name string) float64 {
	if s == nil {
		return 0
	}
	if i, ok := s.index()[name]; ok {
		return s.Samples[i].Value
	}
	return 0
}

// Has reports whether the snapshot contains the named sample.
func (s *Snapshot) Has(name string) bool {
	if s == nil {
		return false
	}
	_, ok := s.index()[name]
	return ok
}

// Delta returns Get(name) minus prev.Get(name); prev may be nil.
func (s *Snapshot) Delta(prev *Snapshot, name string) float64 {
	return s.Get(name) - prev.Get(name)
}

// MarshalJSON renders the snapshot as a flat {"name": value} object.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, len(s.Samples))
	for _, smp := range s.Samples {
		m[smp.Name] = smp.Value
	}
	return json.Marshal(m)
}

// typeFamily returns the family name a sample's # TYPE line declares.
// Histogram component series (_bucket/_sum/_count) all declare their
// shared base name, per the Prometheus histogram convention.
func typeFamily(name string, kind Kind) string {
	fam := family(name)
	if kind != Histogram {
		return fam
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(fam, suf) {
			return fam[:len(fam)-len(suf)]
		}
	}
	return fam
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (one # TYPE line per metric family, labels preserved; histogram
// components share one `# TYPE <base> histogram` declaration).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	declared := make(map[string]bool)
	for _, smp := range s.Samples {
		fam := typeFamily(smp.Name, smp.Kind)
		if !declared[fam] {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, smp.Kind); err != nil {
				return err
			}
			declared[fam] = true
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", smp.Name, smp.Value); err != nil {
			return err
		}
	}
	return nil
}

// Label builds a Prometheus-style series name: Label("x_total", "sm", "3")
// returns `x_total{sm="3"}`. Key/value arguments come in pairs; an odd
// trailing key is ignored.
func Label(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// LabelAll applies one label set to every name in a counter table.
// Collectors call it once at registration, so taking a snapshot formats
// no labels.
func LabelAll(names []string, kv ...string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = Label(name, kv...)
	}
	return out
}
