package bench

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// The stream experiment measures the executor's two configurations against
// each other on every scheme — drained (core.ExecOptions{}: one unbounded
// batch per operator, scans included; the "materializing" cells) and pipelined
// (Streaming: true; the "streaming" cells): the twelve paper queries (where
// both drain everything and the comparison is charge parity), a generated
// ORDER BY/LIMIT workload (where early termination is supposed to pay), and
// anchored stars, whose sibling joins the compiler licenses to probe (where
// a scheme that seeks a subject never scans the siblings). Reported per
// query and mode: simulated real/user time, host time,
// physical I/O, and the tracked peak of per-query intermediate memory.
// Result identity is an invariant of an emitted report — a violation aborts
// the run: on a scheme, every configuration (drained, pipelined at 1024 rows
// a batch as measured, and at 1, 2 and 5 unmeasured) returns the same bytes
// in the same order, and where the query has an order-independent answer
// (the ORDER BY workload) those bytes are the bgp.EvalBGP oracle's.

// StreamMaxLimitPeakRatio is the bounded-memory regression limit: on the
// scan-shaped LIMIT workload, no system's pipelined peak may exceed this
// fraction of its drained peak.
const StreamMaxLimitPeakRatio = 0.25

// StreamOptions configures the stream experiment.
type StreamOptions struct {
	// Queries sizes each generated workload (LIMIT-10 pattern queries and
	// ORDER BY + LIMIT TopN queries). Default 10.
	Queries int
	// Seed feeds the workload generator.
	Seed int64
	// Mode is the Section 2.3 run protocol; Cold (the default) is where
	// early termination shows up as saved physical I/O.
	Mode Mode
	// Overlapped switches each system's simulated clock to the
	// overlapped-I/O composition (real = max(CPU, I/O) instead of CPU+I/O)
	// for the duration of the experiment.
	Overlapped bool
}

func (o StreamOptions) withDefaults() StreamOptions {
	if o.Queries <= 0 {
		o.Queries = 10
	}
	return o
}

// StreamRun is one measured (query, system, configuration) cell.
type StreamRun struct {
	// RealS and UserS are simulated seconds, averaged over MeasuredRuns.
	RealS float64 `json:"realS"`
	UserS float64 `json:"userS"`
	// HostMs is host wall-clock per run (the go executor's own speed).
	HostMs float64 `json:"hostMs"`
	// IOBytes is the physical bytes read by the last measured run.
	IOBytes int64 `json:"ioBytes"`
	// PeakBytes is the tracked peak of live intermediate bytes.
	PeakBytes int64 `json:"peakBytes"`
}

// StreamQueryResult is one query × system row with both configurations' cells.
type StreamQueryResult struct {
	Query  string `json:"query"`
	Kind   string `json:"kind"` // "paper", "limit", "join-limit", "topn" or "star"
	System string `json:"system"`
	Rows   int    `json:"rows"`
	// HeapTopN reports the query ran a bounded-heap TopN.
	HeapTopN      bool      `json:"heapTopN,omitempty"`
	Materializing StreamRun `json:"materializing"`
	Streaming     StreamRun `json:"streaming"`
}

// StreamSystemResult aggregates one system over the LIMIT workload — the
// regression-guard numbers.
type StreamSystemResult struct {
	System string `json:"system"`
	// Peak bytes summed over the LIMIT workload, and their ratio — the
	// headline bounded-memory claim (RunStream fails above
	// StreamMaxLimitPeakRatio).
	LimitPeakMat    int64   `json:"limitPeakMat"`
	LimitPeakStream int64   `json:"limitPeakStream"`
	LimitPeakRatio  float64 `json:"limitPeakRatio"`
	// Simulated real seconds summed over the LIMIT workload and the
	// resulting speedup of streaming execution.
	LimitRealMat    float64 `json:"limitRealMat"`
	LimitRealStream float64 `json:"limitRealStream"`
	LimitSpeedup    float64 `json:"limitSpeedup"`
	// Physical I/O summed over the LIMIT workload (cold runs: early
	// termination leaves the tail unread).
	LimitIOMat    int64 `json:"limitIOMat"`
	LimitIOStream int64 `json:"limitIOStream"`
}

// StreamReport is the experiment's full result; swanbench serializes it as
// the BENCH_stream artifact.
type StreamReport struct {
	Triples      int    `json:"triples"`
	Seed         int64  `json:"seed"`
	Mode         string `json:"mode"`
	Overlapped   bool   `json:"overlapped"`
	PaperQueries int    `json:"paperQueries"`
	LimitQueries int    `json:"limitQueries"`
	JoinQueries  int    `json:"joinQueries"`
	TopNQueries  int    `json:"topnQueries"`
	StarQueries  int    `json:"starQueries"`
	// Identical is an invariant of an emitted report: on every scheme every
	// configuration returned the same bytes in the same order, the
	// oracle's where the query has one.
	Identical bool `json:"identical"`
	// HeapTopNs counts query × system rows that ran the bounded heap.
	HeapTopNs int `json:"heapTopNs"`
	// MaxLimitPeakRatio is the worst per-system peak-memory ratio on the
	// LIMIT workload — the number StreamMaxLimitPeakRatio bounds.
	MaxLimitPeakRatio float64              `json:"maxLimitPeakRatio"`
	Systems           []StreamSystemResult `json:"systems"`
	Queries           []StreamQueryResult  `json:"queries"`
}

// measureStream applies the Section 2.3 protocol to one compiled plan in
// one configuration, returning the averaged cell, the last run's result, and the
// last run's trace.
func measureStream(sys *System, root core.Node, opt core.ExecOptions, mode Mode) (StreamRun, *rel.Rel, *core.Trace, error) {
	src, ok := sys.DB.(core.PhysicalSource)
	if !ok {
		return StreamRun{}, nil, nil, fmt.Errorf("bench: %s cannot run compiled plans", sys.Name)
	}
	if mode == Hot {
		sys.Store.DropCaches()
		sys.Store.Clock().Reset()
		if _, _, _, err := core.ExecutePlan(src, root, opt); err != nil {
			return StreamRun{}, nil, nil, fmt.Errorf("bench: %s warmup: %w", sys.Name, err)
		}
	}
	var run StreamRun
	var sumReal, sumUser time.Duration
	var last *rel.Rel
	var ltr *core.Trace
	host0 := time.Now()
	for i := 0; i < MeasuredRuns; i++ {
		if mode == Cold {
			sys.Store.DropCaches()
		}
		sys.Store.Clock().Reset()
		io0 := sys.Store.Stats().BytesRead
		out, _, tr, err := core.ExecutePlan(src, root, opt)
		if err != nil {
			return StreamRun{}, nil, nil, fmt.Errorf("bench: %s: %w", sys.Name, err)
		}
		sumReal += sys.Store.Clock().Real()
		sumUser += sys.Store.Clock().User()
		run.IOBytes = sys.Store.Stats().BytesRead - io0
		last, ltr = out, tr
	}
	run.HostMs = float64(time.Since(host0).Microseconds()) / 1e3 / MeasuredRuns
	run.RealS = (sumReal / MeasuredRuns).Seconds()
	run.UserS = (sumUser / MeasuredRuns).Seconds()
	run.PeakBytes = ltr.PeakBytes
	return run, last, ltr, nil
}

// streamGenQueries generates n distinct queries under cfg, which the
// experiment turns into its two workloads.
func streamGenQueries(w *Workload, cfg bgp.GenConfig, keep func(*bgp.Query) bool, n int) []*bgp.Query {
	gen := bgp.NewGenerator(w.DS.Graph, cfg)
	out := make([]*bgp.Query, 0, n)
	seen := map[string]bool{}
	for i := 0; len(out) < n && i < n*50; i++ {
		q, _ := gen.Query(i)
		if !keep(q) {
			continue
		}
		canon := bgp.CanonicalText(q.Text())
		if seen[canon] {
			continue
		}
		seen[canon] = true
		out = append(out, q)
	}
	return out
}

// starTexts returns the star workload: for arity 2 and 3, the first triple
// (in the graph's order) of a property of frequency rank 4–11 whose
// (property, object) matches at most 20 subjects and whose subject carries
// the arity's sibling properties — the most frequent ones, as in the
// performance ledger's star-selective workload. Data too small to hold such
// an anchor yields no star of that arity.
func starTexts(w *Workload) []string {
	g, ranked := w.DS.Graph, w.DS.PropsByRank
	if len(ranked) < 12 {
		return nil
	}
	type key struct{ a, b rdf.ID }
	anchor := map[rdf.ID]bool{}
	for _, p := range ranked[4:12] {
		anchor[p] = true
	}
	poCount := map[key]int{} // of the anchor properties
	has := map[key]bool{}    // (subject, sibling property)
	for _, t := range g.Triples {
		if anchor[t.P] {
			poCount[key{t.P, t.O}]++
		} else if t.P == ranked[0] || t.P == ranked[1] {
			has[key{t.S, t.P}] = true
		}
	}
	term := func(id rdf.ID) string { return g.Dict.Term(id).String() }
	var texts []string
	for arity := 2; arity <= 3; arity++ {
		for _, t := range g.Triples {
			if !anchor[t.P] || poCount[key{t.P, t.O}] > 20 || !has[key{t.S, ranked[0]}] || !has[key{t.S, ranked[arity-2]}] {
				continue
			}
			sel, where := "SELECT ?s", fmt.Sprintf("?s %s %s", term(t.P), term(t.O))
			for k, v := range []string{"?a", "?b"}[:arity-1] {
				sel += " " + v
				where += fmt.Sprintf(" . ?s %s %s", term(ranked[k]), v)
			}
			texts = append(texts, sel+" WHERE { "+where+" }")
			break
		}
	}
	return texts
}

// RunStream runs the stream experiment over the given systems (normally
// BGPSystems: both engines × both schemes). A LIMIT-workload peak ratio
// above StreamMaxLimitPeakRatio returns the complete report beside the
// error; every other failure returns a nil report.
func RunStream(w *Workload, systems []*System, opt StreamOptions) (*StreamReport, error) {
	opt = opt.withDefaults()
	report := &StreamReport{
		Triples:    w.DS.Graph.Len(),
		Seed:       opt.Seed,
		Mode:       opt.Mode.String(),
		Overlapped: opt.Overlapped,
		Identical:  true,
	}
	if opt.Overlapped {
		for _, sys := range systems {
			sys.Store.Clock().SetOverlapped(true)
			defer sys.Store.Clock().SetOverlapped(false)
		}
	}

	type job struct {
		name string
		kind string
		root core.Node
		// query is the job's source text where its answer does not depend on
		// scan order (ORDER BY over a total order), so the oracle can give it.
		query *bgp.Query
	}
	var jobs []job
	for _, q := range core.BenchmarkQueries() {
		p, err := core.PlanFor(q, w.Cat.Consts)
		if err != nil {
			return nil, fmt.Errorf("bench: stream: %v: %w", q, err)
		}
		jobs = append(jobs, job{name: q.String(), kind: "paper", root: p.Root})
		report.PaperQueries++
	}
	est := w.Estimator()
	// The LIMIT workload — the regression-guard numbers: LIMIT 10 over the
	// full triple scan and the most frequent property scans, the shape a
	// paged serving client produces. These plans are fully pipelineable, so
	// the pipelined peak is a couple of batches while the drained scan's one
	// batch holds the entire table — the bounded-memory claim in its purest form. (The BGP surface language ties LIMIT to ORDER BY; the
	// plan vocabulary has the bare prefix LIMIT, so this workload is built
	// at the plan level.)
	jobs = append(jobs, job{name: "SELECT * WHERE { ?s ?p ?o } LIMIT 10", kind: "limit",
		root: &core.Limit{In: &core.Access{Pattern: core.Pat(core.V("s"), core.V("p"), core.V("o"))}, N: 10}})
	report.LimitQueries++
	for _, p := range w.DS.PropsByRank {
		if report.LimitQueries >= opt.Queries {
			break
		}
		name := fmt.Sprintf("SELECT * WHERE { ?s <%s> ?o } LIMIT 10", w.DS.Graph.Dict.Term(p).Value)
		jobs = append(jobs, job{name: name, kind: "limit",
			root: &core.Limit{In: &core.Access{Pattern: core.Pat(core.V("s"), core.C(p), core.V("o"))}, N: 10}})
		report.LimitQueries++
	}
	// The join-LIMIT workload: generated star/chain BGP queries whose limit
	// binds (more than 10 results), wrapped in a plan-level LIMIT 10. Here
	// pipelining still buffers hash-join build sides — an irreducible floor
	// for any pipelined engine — so these rows are reported for context but
	// excluded from the regression guard.
	{
		probe, ok := systems[0].DB.(core.PhysicalSource)
		if !ok {
			return nil, fmt.Errorf("bench: stream: %s cannot run compiled plans", systems[0].Name)
		}
		gen := bgp.NewGenerator(w.DS.Graph, bgp.GenConfig{
			Seed: opt.Seed, ConstProb: -1, OptionalProb: -1, RangeProb: -1, OrderProb: -1, LimitProb: -1,
		})
		seen := map[string]bool{}
		for i := 0; report.JoinQueries < opt.Queries && i < opt.Queries*50; i++ {
			q, _ := gen.Query(i)
			canon := bgp.CanonicalText(q.Text())
			if seen[canon] {
				continue
			}
			seen[canon] = true
			compiled, err := bgp.Compile(q, w.DS.Graph.Dict, est)
			if err != nil {
				return nil, fmt.Errorf("bench: stream: %q: %w", q.Text(), err)
			}
			// Only queries whose limit binds (more than 10 results) say
			// anything about LIMIT behavior; the rest drain fully either way.
			out, _, _, err := core.ExecutePlan(probe, compiled.Root, core.ExecOptions{})
			if err != nil {
				return nil, fmt.Errorf("bench: stream: %q: %w", q.Text(), err)
			}
			if out.Len() <= 10 {
				continue
			}
			jobs = append(jobs, job{name: q.Text() + " LIMIT 10", kind: "join-limit",
				root: &core.Limit{In: compiled.Root, N: 10}})
			report.JoinQueries++
		}
	}
	// The TopN workload: generated ORDER BY + LIMIT queries, where the
	// bounded heap replaces the full sort.
	topn := streamGenQueries(w,
		bgp.GenConfig{Seed: opt.Seed + 1, OrderProb: 1, LimitProb: 1},
		func(q *bgp.Query) bool { return len(q.OrderBy) > 0 && q.Limit != nil }, opt.Queries)
	for _, q := range topn {
		compiled, err := bgp.Compile(q, w.DS.Graph.Dict, est)
		if err != nil {
			return nil, fmt.Errorf("bench: stream: %q: %w", q.Text(), err)
		}
		jobs = append(jobs, job{name: q.Text(), kind: "topn", root: compiled.Root, query: q})
		report.TopNQueries++
	}

	// The star workload: anchored stars of arity 2 and 3, compiled with the
	// estimator, so their sibling joins carry the compiler's probe license —
	// the cells where a subject-seeking scheme pays per anchor row and the
	// column triple-store still pays per sibling row.
	for _, text := range starTexts(w) {
		q, err := bgp.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("bench: stream: %q: %w", text, err)
		}
		compiled, err := bgp.Compile(q, w.DS.Graph.Dict, est)
		if err != nil {
			return nil, fmt.Errorf("bench: stream: %q: %w", text, err)
		}
		jobs = append(jobs, job{name: text, kind: "star", root: compiled.Root})
		report.StarQueries++
	}

	agg := make([]StreamSystemResult, len(systems))
	for si, sys := range systems {
		agg[si].System = sys.Name
	}
	same := func(a, b *rel.Rel) bool { return a.W == b.W && slices.Equal(a.Data, b.Data) }
	for _, j := range jobs {
		var oracle *rel.Rel
		if j.query != nil {
			var err error
			if oracle, _, err = bgp.EvalBGP(j.query, core.GraphSource{G: w.DS.Graph}, w.DS.Graph.Dict, w.Cat.Interesting); err != nil {
				return nil, fmt.Errorf("bench: stream %s: oracle: %w", j.name, err)
			}
		}
		for si, sys := range systems {
			mat, matRes, _, err := measureStream(sys, j.root, core.ExecOptions{}, opt.Mode)
			if err != nil {
				return nil, fmt.Errorf("bench: stream %s: %w", j.name, err)
			}
			str, strRes, strTr, err := measureStream(sys, j.root, core.ExecOptions{Streaming: true}, opt.Mode)
			if err != nil {
				return nil, fmt.Errorf("bench: stream %s: %w", j.name, err)
			}
			if oracle != nil && !same(matRes, oracle) {
				return nil, fmt.Errorf("bench: stream %s on %s: result differs from the oracle (%d vs %d rows)",
					j.name, sys.Name, matRes.Len(), oracle.Len())
			}
			if !same(matRes, strRes) {
				return nil, fmt.Errorf("bench: stream %s on %s: configurations disagree (%d vs %d rows)",
					j.name, sys.Name, matRes.Len(), strRes.Len())
			}
			// The batch sizes that put a boundary inside every operator,
			// unmeasured.
			for _, rows := range []int{1, 2, 5} {
				got, _, _, err := core.ExecutePlan(sys.DB.(core.PhysicalSource), j.root, core.ExecOptions{Streaming: true, BatchRows: rows})
				if err != nil {
					return nil, fmt.Errorf("bench: stream %s on %s, %d-row batches: %w", j.name, sys.Name, rows, err)
				}
				if !same(matRes, got) {
					return nil, fmt.Errorf("bench: stream %s on %s: %d-row batches disagree with the drain configuration (%d vs %d rows)",
						j.name, sys.Name, rows, got.Len(), matRes.Len())
				}
			}
			row := StreamQueryResult{
				Query: j.name, Kind: j.kind, System: sys.Name, Rows: strRes.Len(),
				Materializing: mat, Streaming: str,
			}
			for _, tn := range strTr.TopNs {
				if tn.Heap {
					row.HeapTopN = true
					report.HeapTopNs++
					break
				}
			}
			report.Queries = append(report.Queries, row)
			if j.kind == "limit" {
				a := &agg[si]
				a.LimitPeakMat += mat.PeakBytes
				a.LimitPeakStream += str.PeakBytes
				a.LimitRealMat += mat.RealS
				a.LimitRealStream += str.RealS
				a.LimitIOMat += mat.IOBytes
				a.LimitIOStream += str.IOBytes
			}
		}
	}
	for i := range agg {
		a := &agg[i]
		if a.LimitPeakMat > 0 {
			a.LimitPeakRatio = float64(a.LimitPeakStream) / float64(a.LimitPeakMat)
		}
		if a.LimitRealStream > 0 {
			a.LimitSpeedup = a.LimitRealMat / a.LimitRealStream
		}
		if a.LimitPeakRatio > report.MaxLimitPeakRatio {
			report.MaxLimitPeakRatio = a.LimitPeakRatio
		}
	}
	report.Systems = agg
	if report.MaxLimitPeakRatio > StreamMaxLimitPeakRatio {
		return report, fmt.Errorf("bench: stream: LIMIT-workload pipelined peak is %.3f of drained, limit %.2f",
			report.MaxLimitPeakRatio, StreamMaxLimitPeakRatio)
	}
	return report, nil
}

// FormatStream renders the report for the console.
func FormatStream(r *StreamReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipelined (str) vs drained (mat) configuration of the executor, %s runs (overlapped clock: %v)\n", r.Mode, r.Overlapped)
	fmt.Fprintf(&b, "%d paper queries + %d scan LIMIT-10 + %d join LIMIT-10 + %d ORDER BY/LIMIT queries + %d anchored stars (seed %d); results byte-identical: %v; heap TopNs: %d\n\n",
		r.PaperQueries, r.LimitQueries, r.JoinQueries, r.TopNQueries, r.StarQueries, r.Seed, r.Identical, r.HeapTopNs)
	fmt.Fprintf(&b, "LIMIT workload per system (summed):\n")
	fmt.Fprintf(&b, "%-18s %12s %12s %8s %12s %12s %9s %12s %12s\n",
		"system", "mat real(s)", "str real(s)", "speedup", "mat peak(B)", "str peak(B)", "ratio", "mat IO(B)", "str IO(B)")
	for _, s := range r.Systems {
		fmt.Fprintf(&b, "%-18s %12.3f %12.3f %7.2fx %12d %12d %9.3f %12d %12d\n",
			s.System, s.LimitRealMat, s.LimitRealStream, s.LimitSpeedup,
			s.LimitPeakMat, s.LimitPeakStream, s.LimitPeakRatio,
			s.LimitIOMat, s.LimitIOStream)
	}
	fmt.Fprintf(&b, "\nper-query detail (simulated real seconds; peak bytes):\n")
	fmt.Fprintf(&b, "%-40s %-18s %6s %10s %10s %12s %12s %5s\n",
		"query", "system", "rows", "mat (s)", "str (s)", "mat peak", "str peak", "heap")
	for _, q := range r.Queries {
		name := q.Query
		if len(name) > 40 {
			name = name[:37] + "..."
		}
		heap := ""
		if q.HeapTopN {
			heap = "yes"
		}
		fmt.Fprintf(&b, "%-40s %-18s %6d %10.3f %10.3f %12d %12d %5s\n",
			name, q.System, q.Rows, q.Materializing.RealS, q.Streaming.RealS,
			q.Materializing.PeakBytes, q.Streaming.PeakBytes, heap)
	}
	fmt.Fprintf(&b, "\nmax LIMIT-workload peak-memory ratio (pipelined/drained): %.3f (regression guard: %.2f)\n",
		r.MaxLimitPeakRatio, StreamMaxLimitPeakRatio)
	return b.String()
}
