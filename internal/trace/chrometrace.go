package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"warpedslicer/internal/obs"
	"warpedslicer/internal/prof"
	"warpedslicer/internal/span"
)

// Chrome trace-event constants (the about://tracing JSON format). One
// simulated core cycle is rendered as one microsecond.
const (
	chromePidKernels    = 0 // counter tracks: IPC, occupancy, stalls, bandwidth
	chromePidController = 1 // controller decision events and phase spans
	chromePidSpans      = 2 // sampled memory-request spans (async events)
)

// chromeEvent is one entry of the Trace Event Format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object chrome://tracing loads.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the timeline — per-kernel IPC and occupancy
// counters, the stall mix, DRAM bandwidth — and the attached event log's
// controller decisions on one shared timeline, as Chrome trace-event JSON
// loadable in chrome://tracing (or https://ui.perfetto.dev).
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	evs := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: chromePidKernels,
			Args: map[string]any{"name": "kernel windows"}},
		{Name: "process_name", Ph: "M", Pid: chromePidController,
			Args: map[string]any{"name": "controller"}},
	}

	for _, p := range t.Points {
		// Counter samples are stamped at the window's start so the value
		// chrome draws over [start, end) is the value measured there.
		ts := p.Start
		ipc := make(map[string]any, len(p.KernelIPC))
		ctas := make(map[string]any, len(p.CTAs))
		for k := 0; k < t.kernels; k++ {
			if k < len(p.KernelIPC) {
				ipc[fmt.Sprintf("k%d", k)] = round3(p.KernelIPC[k])
				ctas[fmt.Sprintf("k%d", k)] = p.CTAs[k]
			}
		}
		evs = append(evs,
			chromeEvent{Name: "ipc", Ph: "C", Ts: ts, Pid: chromePidKernels, Args: ipc},
			chromeEvent{Name: "ctas", Ph: "C", Ts: ts, Pid: chromePidKernels, Args: ctas},
			chromeEvent{Name: "stalls", Ph: "C", Ts: ts, Pid: chromePidKernels, Args: map[string]any{
				"mem":  round3(p.StallMem),
				"raw":  round3(p.StallRAW),
				"exec": round3(p.StallExec),
				"ibuf": round3(p.StallIBuf),
			}},
			chromeEvent{Name: "dram bandwidth", Ph: "C", Ts: ts, Pid: chromePidKernels,
				Args: map[string]any{"util": round3(p.Bandwidth)}},
			chromeEvent{Name: "l1 miss latency", Ph: "C", Ts: ts, Pid: chromePidKernels,
				Args: map[string]any{
					"p50": round3(p.LatP50),
					"p95": round3(p.LatP95),
					"p99": round3(p.LatP99),
				}},
		)
		// Engine self-profile: one counter track of per-phase wall-clock
		// cost for the window. Present only when the run attached a
		// profiler (EnginePhaseNs nil otherwise), so traces of unprofiled
		// runs are byte-identical to before.
		if p.EnginePhaseNs != nil {
			phases := make(map[string]any, len(p.EnginePhaseNs))
			for i, ns := range p.EnginePhaseNs {
				phases[prof.Phase(i).String()] = round3(ns)
			}
			evs = append(evs, chromeEvent{Name: "engine phase ns", Ph: "C", Ts: ts,
				Pid: chromePidKernels, Args: phases})
		}
		// One stall-attribution counter track per kernel slot, so the
		// per-kernel stall mix stacks next to that kernel's IPC track.
		for k := 0; k < t.kernels; k++ {
			if k >= len(p.KernelStallMem) {
				break
			}
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("stalls k%d", k), Ph: "C", Ts: ts, Pid: chromePidKernels,
				Args: map[string]any{
					"mem":  round3(p.KernelStallMem[k]),
					"raw":  round3(at(p.KernelStallRAW, k)),
					"exec": round3(at(p.KernelStallExec, k)),
					"ibuf": round3(at(p.KernelStallIBuf, k)),
				},
			})
		}
	}

	evs = append(evs, t.controllerEvents()...)
	evs = append(evs, t.spanEvents()...)

	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// spanEvents renders the most recently completed memory-request spans as
// nestable async events — one lane per request, a nested slice per
// hierarchy stage — plus a flow arrow from issue to reply delivery, so a
// single L1 miss's journey is visible end to end in chrome://tracing.
// Rows group by kernel slot (tid = slot).
func (t *Timeline) spanEvents() []chromeEvent {
	if t.g == nil || t.g.Mem == nil {
		return nil
	}
	var out []chromeEvent
	t.g.Mem.Spans.Recent(func(sp span.Span) {
		if len(out) == 0 {
			out = append(out, chromeEvent{Name: "process_name", Ph: "M",
				Pid: chromePidSpans, Args: map[string]any{"name": "memory spans (sampled)"}})
		}
		id := fmt.Sprintf("span%d", sp.Seq)
		name := fmt.Sprintf("k%d 0x%x", sp.Kernel, sp.Line)
		args := map[string]any{
			"outcome": sp.Outcome.String(),
			"sm":      sp.SM,
			"cycles":  sp.EndToEnd(),
		}
		if sp.RowHit >= 0 {
			args["dram_row_hit"] = sp.RowHit == 1
			args["dram_queue_wait_memcycles"] = sp.DRAMQueueWait
			args["dram_service_memcycles"] = sp.DRAMService
		}
		out = append(out, chromeEvent{Name: name, Cat: "span", Ph: "b",
			Ts: sp.Issued, Pid: chromePidSpans, Tid: sp.Kernel, ID: id, Args: args})
		cursor := sp.Issued
		for st := span.Stage(0); st < span.NumStages; st++ {
			d := sp.Stages[st]
			if d <= 0 {
				continue
			}
			out = append(out,
				chromeEvent{Name: st.String(), Cat: "span", Ph: "b",
					Ts: cursor, Pid: chromePidSpans, Tid: sp.Kernel, ID: id},
				chromeEvent{Name: st.String(), Cat: "span", Ph: "e",
					Ts: cursor + d, Pid: chromePidSpans, Tid: sp.Kernel, ID: id})
			cursor += d
		}
		out = append(out,
			chromeEvent{Name: name, Cat: "span", Ph: "e",
				Ts: sp.Delivered, Pid: chromePidSpans, Tid: sp.Kernel, ID: id},
			// Flow arrow across the whole round trip.
			chromeEvent{Name: "l1miss", Cat: "spanflow", Ph: "s",
				Ts: sp.Issued, Pid: chromePidSpans, Tid: sp.Kernel, ID: id},
			chromeEvent{Name: "l1miss", Cat: "spanflow", Ph: "f", BP: "e",
				Ts: sp.Delivered, Pid: chromePidSpans, Tid: sp.Kernel, ID: id})
	})
	return out
}

// controllerEvents renders the events of the timeline's own run (those
// emitted under Events' run scope): every event as an instant, plus
// duration spans for each profiling episode (profile_start -> sample_start
// is warm-up; sample_start -> decision is sampling + algorithm delay).
func (t *Timeline) controllerEvents() []chromeEvent {
	if t.Events == nil {
		return nil
	}
	var out []chromeEvent
	var warmupFrom, sampleFrom int64 = -1, -1
	for _, ev := range t.Events.FilterRun(t.Events.Run()) {
		out = append(out, chromeEvent{
			Name: ev.Kind, Ph: "i", Ts: ev.Cycle, Pid: chromePidController, S: "p",
			Args: ev.Data,
		})
		switch ev.Kind {
		case obs.EvProfileStart, obs.EvReprofile:
			warmupFrom = ev.Cycle
		case obs.EvSampleStart:
			if warmupFrom >= 0 {
				out = append(out, chromeEvent{Name: "warmup", Ph: "X",
					Ts: warmupFrom, Dur: ev.Cycle - warmupFrom, Pid: chromePidController})
				warmupFrom = -1
			}
			sampleFrom = ev.Cycle
		case obs.EvDecision:
			if sampleFrom >= 0 {
				out = append(out, chromeEvent{Name: "sample+delay", Ph: "X",
					Ts: sampleFrom, Dur: ev.Cycle - sampleFrom, Pid: chromePidController})
				sampleFrom = -1
			}
		}
	}
	return out
}

// round3 keeps exported JSON compact and stable (3 decimal places).
func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}
