package serve

import (
	"blackswan/internal/core"
	"blackswan/internal/trace"
)

// bridgeProfile grafts a finished per-operator profile tree into a
// request trace as "op:<label>" spans under parent (the execute span).
// The executor already timed every operator — Start and the inclusive
// Host duration — so the bridge copies measurements instead of re-timing
// anything, keeping tracing observation-only. Simulated charges ride
// along as attributes, so an exported trace carries the paper's
// cost-model view next to host time. labels are the plan's, by node number.
func bridgeProfile(tr *trace.Trace, parent trace.SpanID, prof *core.OpProfile, labels []string) {
	if tr == nil || prof == nil {
		return
	}
	attrs := []trace.Attr{
		trace.Int("rows", int64(prof.Rows)),
		trace.Int("batches", int64(prof.Batches)),
		trace.Duration("simCpu", prof.CPU),
		trace.Duration("simIo", prof.IO),
	}
	if prof.Note != "" {
		attrs = append(attrs, trace.String("note", prof.Note))
	}
	id := tr.Add("op:"+labels[prof.ID], parent, prof.Start, prof.Host, attrs...)
	for _, c := range prof.Children {
		bridgeProfile(tr, id, c, labels)
	}
}
