// Package runlog is the persistent run-provenance layer: an append-only,
// content-addressed ledger of completed simulation runs plus a bounded,
// downsampled time series of device counter deltas. Every other
// observability surface in the tree (registry, spans, profiler, digest
// trails) dies with its process; the ledger is what survives — each run
// lands as a RunRecord keyed by a digest of its inputs (config, kernel
// specs, policy, windows), so identical runs dedupe to one entry and the
// key doubles as the memoization hook for a future result cache (ROADMAP
// item 1).
//
// The package is a Sim package under the simlint determinism contract:
// no clocks, no environment reads, no goroutines, no map iteration in
// any serialized path. Wall/CPU timing is injected by non-sim callers
// through Ledger.WallNow/CPUNow and recorded only in the (explicitly
// non-canonical) journal — the content-addressed record files are
// byte-identical for identical inputs at any parallelism.
package runlog

import (
	"encoding/json"
	"fmt"

	"warpedslicer/internal/config"
	"warpedslicer/internal/digest"
)

// SchemaVersion tags the RunRecord layout. It is hashed into every
// content address, so records written under different schemas never
// collide on a key.
const SchemaVersion = 1

// Windows captures every cycle window that shapes a run's behavior.
// It is part of the content address: two runs with different windows are
// different runs even over the same kernels and policy.
type Windows struct {
	Isolation        int64   `json:"isolation"`
	MaxCoRun         int64   `json:"max_corun"`
	Warmup           int64   `json:"warmup"`
	Sample           int64   `json:"sample"`
	AlgDelay         int64   `json:"alg_delay"`
	OracleTargetFrac float64 `json:"oracle_target_frac"`
	UseScaledIPC     bool    `json:"use_scaled_ipc"`
	SymmetricScaling bool    `json:"symmetric_scaling"`
}

// Inputs is the canonical identity of a run: everything that determines
// its architectural outcome, and nothing that doesn't (observability
// attachments, parallelism, clocks). The content address is a digest of
// this struct's canonical JSON, so adding a field — like adding a field
// to a digested struct — changes every key, which is the safe failure
// mode for a memoization cache.
type Inputs struct {
	Schema        int        `json:"schema"`
	DigestVersion int        `json:"digest_version"`
	Kind          string     `json:"kind"`
	Workload      string     `json:"workload"`
	Kernels       []string   `json:"kernels"`
	Policy        string     `json:"policy"`
	CTAs          []int      `json:"ctas,omitempty"`
	Targets       []uint64   `json:"targets,omitempty"`
	Sched         string     `json:"sched"`
	Windows       Windows    `json:"windows"`
	Config        config.GPU `json:"config"`

	// Window is a fixed-length run's cycle count, DigestPeriod a digest
	// run's recording period, and Drive a driven run's own parameters
	// (the timeline's window and cycles, Figure 5's window count). Each
	// is omitted when unset, so runs without one keep their keys.
	Window       int64            `json:"window,omitempty"`
	DigestPeriod int64            `json:"digest_period,omitempty"`
	Drive        map[string]int64 `json:"drive,omitempty"`
}

// Key computes the run's content address: the canonical JSON of the
// inputs fed through the digest hasher. encoding/json sorts map keys and
// struct fields marshal in declaration order, so the byte stream — and
// therefore the key — is deterministic.
func (in Inputs) Key() (string, error) {
	data, err := json.Marshal(in)
	if err != nil {
		return "", fmt.Errorf("runlog: marshal inputs: %w", err)
	}
	h := digest.NewHasher()
	h.Str("runlog-inputs")
	h.Bytes(data)
	return h.Sum().String(), nil
}

// Metric is one named headline value. Records carry an ordered slice
// rather than a map so the serialized order (and any diff walk) is
// explicit and deterministic.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// RunRecord is one completed run: its content address, full canonical
// inputs (so a record is self-describing without the session that wrote
// it), outcome, headline metrics, digest-trail summary, and the windowed
// counter series. Everything serialized here is deterministic; wall/CPU
// timing lives in the journal Entry instead.
type RunRecord struct {
	Key     string `json:"key"`
	Inputs  Inputs `json:"inputs"`
	Cycles  int64  `json:"cycles"`
	Timeout bool   `json:"timeout,omitempty"`

	// DigestChain/DigestRecords summarize the state-digest audit trail
	// when one was armed (zero otherwise). The full trail, when captured,
	// is stored next to the record (see Ledger.PutTrail) for the
	// divergence bisector.
	DigestChain   digest.Sum `json:"digest_chain,omitempty"`
	DigestRecords uint64     `json:"digest_records,omitempty"`

	Metrics []Metric `json:"metrics"`
	Series  *Series  `json:"series,omitempty"`
}

// Metric returns the named metric's value and whether it is present.
func (r *RunRecord) Metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// MarshalRecord renders the canonical record bytes stored under
// records/<key>.json: indented JSON with a trailing newline, stable
// across processes and parallelism.
func MarshalRecord(r *RunRecord) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runlog: marshal record: %w", err)
	}
	return append(data, '\n'), nil
}
