package core

import (
	"fmt"
	"strings"
	"time"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

// This file is the per-operator profile collector behind EXPLAIN ANALYZE:
// with ExecOptions.Profile set, the executor records, for every plan node
// it lowers, the rows and batches it emitted, the simulated CPU and I/O it
// charged, its host wall time, and the live intermediate-result bytes
// observed at its batch boundaries. Collection is observation-only — no
// operator output, row order, or simulated charge changes when profiling
// is on — and costs nothing when it is off (a nil pointer check per
// operator).
//
// Charge attribution works by differencing the engine store's Charges
// around each operator frame: the node's build phase and each
// next()/close() of the iterator wrapping its output edge. Frames nest, so
// the recorded figures are inclusive of children; finish() derives per-node
// self figures by subtracting each child once. A plan runs on one
// goroutine, so attribution within it is exact; the store's totals are
// global, though, so a profile taken while concurrent queries share the
// store soaks up the neighbours' charges.

// OpProfile is one plan node's recorded actuals. The tree mirrors the
// order the executor actually evaluated nodes in: a shared DAG node
// appears under the parent that first evaluated it, and an access fused
// into a partitioned join appears under that join with the "fused" note
// (its work is charged to the join frame).
type OpProfile struct {
	// Node is the profiled plan node — the identity estimate annotation
	// and label rendering key on.
	Node Node `json:"-"`
	// Note records a lowering decision the plan tree alone cannot show:
	// a join's JoinStrategy, "heap", "sort", "fused".
	Note string
	// Rows and Batches count the node's emitted output, one batch per
	// non-empty batch handed on (in the drain configuration an operator
	// emits its whole output as one).
	Rows    int
	Batches int
	// Start is the host-clock instant the executor opened this node's
	// frame, at pipeline build (work then accrues at next() windows).
	// With Host it lets the tracing layer bridge the profile tree into
	// request-scoped spans without re-timing anything.
	Start time.Time
	// CPU, IO, IOBytes and Host are inclusive of children (the node's
	// whole subtree); the Self fields are this node's own share.
	CPU         time.Duration
	IO          time.Duration
	IOBytes     int64
	Host        time.Duration
	SelfCPU     time.Duration
	SelfIO      time.Duration
	SelfIOBytes int64
	SelfHost    time.Duration
	// PeakBytes is the high-water of live intermediate-result bytes
	// observed at this node's operator boundaries while it ran.
	PeakBytes int64
	// EstRows is the optimizer's cardinality estimate for this node, < 0
	// when none was attached (see AnnotateEstimates).
	EstRows  float64
	Children []*OpProfile
}

// charge is one reading of the store's totals.
type charge struct {
	cpuNs, ioNs, bytes int64
}

func (c charge) sub(o charge) charge {
	return charge{c.cpuNs - o.cpuNs, c.ioNs - o.ioNs, c.bytes - o.bytes}
}

// profiler threads the collector through one execution.
type profiler struct {
	store *simio.Store
	mem   *memTracker
	root  *OpProfile
	stack []*OpProfile
	nodes map[Node]*OpProfile
}

func newProfiler(store *simio.Store, mem *memTracker) *profiler {
	return &profiler{store: store, mem: mem, nodes: map[Node]*OpProfile{}}
}

func (p *profiler) charges() charge {
	cpu, io, b := p.store.Charges()
	return charge{cpu, io, b}
}

// enter opens a profile frame for n under the current frame.
func (p *profiler) enter(n Node) *OpProfile {
	prof := &OpProfile{Node: n, EstRows: -1, Start: time.Now()}
	p.nodes[n] = prof
	if len(p.stack) > 0 {
		top := p.stack[len(p.stack)-1]
		top.Children = append(top.Children, prof)
	} else if p.root == nil {
		p.root = prof
	}
	p.stack = append(p.stack, prof)
	return prof
}

// reenter reopens n's frame for a node lowered after n's build phase.
func (p *profiler) reenter(n Node) { p.stack = append(p.stack, p.nodes[n]) }

func (p *profiler) exit() {
	p.stack = p.stack[:len(p.stack)-1]
}

// note records a lowering decision on n's profile, if n was profiled.
func (p *profiler) note(n Node, s string) {
	if prof := p.nodes[n]; prof != nil {
		prof.Note = s
	}
}

// add folds one measured window into a profile frame.
func (prof *OpProfile) add(d charge, host time.Duration) {
	prof.CPU += time.Duration(d.cpuNs)
	prof.IO += time.Duration(d.ioNs)
	prof.IOBytes += d.bytes
	prof.Host += host
}

// observe updates the node's live-bytes high-water mark.
func (prof *OpProfile) observe(mem *memTracker) {
	prof.PeakBytes = max(prof.PeakBytes, mem.cur)
}

// finish derives the self figures (inclusive minus children, each child
// subtracted exactly once — the tree has no shared profiles) and returns
// the root, clamping negatives from measurement skew to zero.
func (p *profiler) finish() *OpProfile {
	if p == nil || p.root == nil {
		return nil
	}
	var walk func(prof *OpProfile)
	walk = func(prof *OpProfile) {
		cpu, io, host := prof.CPU, prof.IO, prof.Host
		bytes := prof.IOBytes
		for _, c := range prof.Children {
			walk(c)
			cpu -= c.CPU
			io -= c.IO
			bytes -= c.IOBytes
			host -= c.Host
		}
		prof.SelfCPU = maxDur(cpu, 0)
		prof.SelfIO = maxDur(io, 0)
		prof.SelfHost = maxDur(host, 0)
		if bytes < 0 {
			bytes = 0
		}
		prof.SelfIOBytes = bytes
	}
	walk(p.root)
	return p.root
}

func maxDur(d, floor time.Duration) time.Duration {
	if d < floor {
		return floor
	}
	return d
}

// profIter wraps one operator's finished edge: every next()/close() window
// is measured inclusively (parents wrap children, so nesting matches the
// plan tree) and emitted batches are tallied.
type profIter struct {
	p    *profiler
	prof *OpProfile
	in   iter
}

func (pi *profIter) next() (*rel.Rel, error) {
	c0 := pi.p.charges()
	t0 := time.Now()
	b, err := pi.in.next()
	pi.prof.add(pi.p.charges().sub(c0), time.Since(t0))
	if b != nil {
		pi.prof.Rows += b.Len()
		pi.prof.Batches++
	}
	pi.prof.observe(pi.p.mem)
	return b, err
}

func (pi *profIter) close() {
	c0 := pi.p.charges()
	t0 := time.Now()
	pi.in.close()
	pi.prof.add(pi.p.charges().sub(c0), time.Since(t0))
}

// countIter tallies the rows and batches flowing through one per-property
// arm of a partitioned join into the fused step's profile frame.
type countIter struct {
	in   iter
	prof *OpProfile
}

func (c *countIter) next() (*rel.Rel, error) {
	b, err := c.in.next()
	if b != nil {
		c.prof.Rows += b.Len()
		c.prof.Batches++
	}
	return b, err
}

func (c *countIter) close() { c.in.close() }

// AnnotateEstimates attaches per-node optimizer cardinality estimates
// (such as bgp.Compiled.EstRows holds) to the profile tree. Nodes absent
// from the map keep EstRows < 0.
func (prof *OpProfile) AnnotateEstimates(est map[Node]float64) {
	if prof == nil || est == nil {
		return
	}
	if e, ok := est[prof.Node]; ok {
		prof.EstRows = e
	}
	for _, c := range prof.Children {
		c.AnnotateEstimates(est)
	}
}

// Walk visits the profile tree depth-first, parents before children.
func (prof *OpProfile) Walk(fn func(*OpProfile)) {
	if prof == nil {
		return
	}
	fn(prof)
	for _, c := range prof.Children {
		c.Walk(fn)
	}
}

// FormatAnalyze renders a profile tree as the EXPLAIN ANALYZE companion of
// FormatPlan: the same numbered, indented node lines, each annotated with
// actual rows/batches, the optimizer's estimate when attached, the node's
// self share of simulated CPU/IO and host time (inclusive totals live on
// the root line), and the peak live bytes observed at the node.
func FormatAnalyze(prof *OpProfile, term func(rdf.ID) string) string {
	if prof == nil {
		return ""
	}
	if term == nil {
		term = func(id rdf.ID) string { return fmt.Sprintf("#%d", id) }
	}
	var b strings.Builder
	next := 0
	var walk func(p *OpProfile, depth int)
	walk = func(p *OpProfile, depth int) {
		next++
		fmt.Fprintf(&b, "%s%d: %s", strings.Repeat("  ", depth), next, NodeLabel(p.Node, term))
		if p.Note != "" {
			fmt.Fprintf(&b, " [%s]", p.Note)
		}
		fmt.Fprintf(&b, "  rows=%d batches=%d", p.Rows, p.Batches)
		if p.EstRows >= 0 {
			fmt.Fprintf(&b, " est=%.1f", p.EstRows)
		}
		fmt.Fprintf(&b, " cpu=%s io=%s read=%dB host=%s peak=%dB",
			fmtDur(p.SelfCPU), fmtDur(p.SelfIO), p.SelfIOBytes, fmtDur(p.SelfHost), p.PeakBytes)
		if depth == 0 {
			fmt.Fprintf(&b, " (total cpu=%s io=%s read=%dB host=%s)",
				fmtDur(p.CPU), fmtDur(p.IO), p.IOBytes, fmtDur(p.Host))
		}
		b.WriteByte('\n')
		for _, c := range p.Children {
			walk(c, depth+1)
		}
	}
	walk(prof, 0)
	return b.String()
}

// fmtDur rounds durations to a dashboard-friendly precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
