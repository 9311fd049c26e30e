package main

import (
	"time"
)

// spanRec is one traced interval. Spans are kept in memory by the pass
// process, handed to the orchestrator with its result, and written out
// as JSON when the benchmark ends. Journal runs carry only a duration
// (StartNs −1): the ledger records how long a run took, not when it
// started.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	// StartNs is relative to the pass's first simulation.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// CPUNs is the process CPU time spent inside the span. It is a
	// per-span cost only when one worker runs the pass.
	CPUNs int64 `json:"cpu_ns"`
	cpu0  int64
}

// open starts a span (a no-op returning −1 when the pass is untraced).
func (p *passRun) open(name, attr string, parent int) int {
	if !p.traced {
		return -1
	}
	id := len(p.res.Spans)
	p.res.Spans = append(p.res.Spans, spanRec{
		ID: id, Parent: parent, Name: name, Attr: attr,
		StartNs: int64(time.Since(p.t0)), cpu0: cpuNowNs(),
	})
	return id
}

func (p *passRun) close(id int) {
	if id < 0 {
		return
	}
	sp := &p.res.Spans[id]
	sp.DurNs = int64(time.Since(p.t0)) - sp.StartNs
	sp.CPUNs = cpuNowNs() - sp.cpu0
}

// spanKind maps the Session call spans of a ledger-free pass to run
// kinds: each such call is exactly one simulation, because every
// isolation reference is taken before the pair's co-runs.
var spanKind = map[string]string{"Session.Isolation": "iso", "Session.CoRun": "corun"}

// kindsFromSpans rolls a ledger-free traced pass up by run kind.
func kindsFromSpans(spans []spanRec) map[string]kindAgg {
	out := map[string]kindAgg{}
	for _, sp := range spans {
		if kind, ok := spanKind[sp.Name]; ok {
			out[kind] = out[kind].plus(sp.DurNs, sp.CPUNs)
		}
	}
	return out
}

// selfTimes attributes every span's self time (its duration minus the
// part its children cover) to a layer: the benchmark itself (pass and
// pair spans), the experiments layer (Session calls) and, with a ledger,
// the simulations the journal lists under a call.
func selfTimes(spans []spanRec) map[string]float64 {
	child := make([]int64, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.DurNs
		}
	}
	out := map[string]float64{"bench": 0, "experiments": 0, "runs": 0}
	for i, sp := range spans {
		self := sp.DurNs - child[i]
		if self < 0 {
			self = 0
		}
		layer := "runs"
		switch sp.Name {
		case "pass", "pair":
			layer = "bench"
		case "Session.Isolation", "Session.CoRun", "Session.Oracle":
			layer = "experiments"
		}
		out[layer] += float64(self) / 1e9
	}
	return out
}
