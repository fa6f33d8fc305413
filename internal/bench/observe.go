package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"blackswan/internal/rel"
	"blackswan/internal/serve"
	"blackswan/internal/sketch"
	"blackswan/internal/trace"
)

// The observe experiment is the one gate on the serving layer's
// observation-only contract. A generated BGP workload runs hot through the
// serving layer on every scheme: once on a service
// with every observation sink off (the baseline) and once per row of the
// sink table below — per-operator profiling, request tracing at 100% head
// sampling, the workload registry, and all three at once. Three things
// gate an emitted report:
//
//   - observation only: every sink-on execution returns byte-identical rows
//     and charges the simulated clock identically to the baseline execution
//     of the same query on the same scheme (sameObservation, the single
//     check);
//   - proof of life: every sink demonstrably did its work — profiles
//     attached, traces kept, registry counts equal to the executions driven
//     and its p50/p90/p99 within the sketch's ε rank bound of the exactly
//     recorded latencies, per-operator q-error aggregates folded;
//   - bounded overhead: per sink, the summed host time (minimum over the
//     repetitions of each query, so a descheduled run cannot fail the
//     limit) stays within ObserveMaxOverhead of the baseline.
//
// Beside the ratio, the report carries each service's heap allocations
// per execution, read around the first repetition of every item.

// ObserveMaxOverhead is the largest host-time ratio a sink may cost over
// the all-sinks-off baseline.
const ObserveMaxOverhead = 1.10

// Every (query, system) item repeats at least observeMinReps
// times and then until its baseline runs have taken observeItemBudget of
// host time: interference from the host only ever adds time, so minima
// converge from above, and short queries — where one scheduler hiccup is a
// large share of a run — get the most repetitions. A repetition runs the
// baseline and every sink once. The garbage collector is the other noise
// source, and the larger one: a query allocates megabytes, so with the
// collector on a mark phase overlaps most runs and taxes whichever service
// happens to be allocating (identical services then differ by ±20%). The
// measured repetitions therefore run with the collector off, collecting
// once before each item, so the garbage in flight is bounded by one item's
// repetitions (observeMinReps, and what the budget admits beyond them).
const (
	observeMinReps    = 3
	observeItemBudget = 20 * time.Millisecond
)

// ErrObserveOverhead marks the one RunObserve failure that is a host-clock
// verdict rather than a broken invariant: the report is complete and
// returned beside the error, so a caller can still print or inspect it.
var ErrObserveOverhead = errors.New("host overhead above limit")

// observeSink is one row of the sink table: which observation channels the
// service under test has on.
type observeSink struct {
	name                     string
	profile, trace, registry bool
}

var observeSinks = []observeSink{
	{name: "profile", profile: true},
	{name: "trace", trace: true},
	{name: "workload", registry: true},
	{name: "all", profile: true, trace: true, registry: true},
}

// ObserveSinkResult is one sink's verdict: its overhead ratio and its proof
// of life. Fields a sink does not exercise stay zero.
type ObserveSinkResult struct {
	Sink string `json:"sink"`
	// OverheadRatio is summed min host time with the sink on over the
	// baseline's; RunObserve fails above ObserveMaxOverhead.
	OverheadRatio float64 `json:"overheadRatio"`
	// Profiled counts executions that returned a per-operator profile.
	Profiled int64 `json:"profiled,omitempty"`
	// TracesKept counts ring commits and Spans the spans in the ring.
	TracesKept int64 `json:"tracesKept,omitempty"`
	Spans      int64 `json:"spans,omitempty"`
	// Fingerprints and Observations read the registry after the run;
	// QuantileChecks counts the per-fingerprint p50/p90/p99 values verified
	// against the exactly recorded latencies.
	Fingerprints   int   `json:"fingerprints,omitempty"`
	Observations   int64 `json:"observations,omitempty"`
	QuantileChecks int   `json:"quantileChecks,omitempty"`
	// QErrorOps counts the per-operator estimate-vs-actual aggregates the
	// registry folded from profiled executions; MeanQError (geometric, over
	// operators) and MaxQError summarize them.
	QErrorOps  int     `json:"qErrorOps,omitempty"`
	MeanQError float64 `json:"meanQError,omitempty"`
	MaxQError  float64 `json:"maxQError,omitempty"`
	// AllocsPerOp and BytesPerOp are the heap allocations of one execution
	// through the sink-on service, averaged over the items.
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`

	sumLogQ float64 // Σ ln(mean q-error) over QErrorOps, for MeanQError
}

// ObserveCell is one (sink, system) aggregate: summed per-query minimum
// host times of the baseline and of the sink-on service.
type ObserveCell struct {
	Sink   string  `json:"sink"`
	System string  `json:"system"`
	BaseMs float64 `json:"baseMs"`
	SinkMs float64 `json:"sinkMs"`
	Ratio  float64 `json:"ratio"`
}

// ObserveReport is the experiment's full result; swanbench serializes it
// as the BENCH_observe artifact. An emitted report implies byte-identical
// rows and identical simulated charges in every cell.
type ObserveReport struct {
	Triples int   `json:"triples"`
	Seed    int64 `json:"seed"`
	Queries int   `json:"queries"`
	// Reps is the number of measured repetitions over all items, each one
	// execution on the baseline and on every sink.
	Reps        int     `json:"reps"`
	MaxOverhead float64 `json:"maxOverhead"`
	// BaseAllocsPerOp and BaseBytesPerOp are the baseline's heap
	// allocations per execution.
	BaseAllocsPerOp float64             `json:"baseAllocsPerOp"`
	BaseBytesPerOp  float64             `json:"baseBytesPerOp"`
	Epsilon         float64             `json:"epsilon"`
	Sinks           []ObserveSinkResult `json:"sinks"`
	Cells           []ObserveCell       `json:"cells"`
}

// obsRun is what one execution exposes to the observation-only contract.
type obsRun struct {
	rows       *rel.Rel
	real, user time.Duration
}

// sameObservation is the observation-only invariant: a sink-on execution
// must be indistinguishable from the baseline in rows (byte for byte, order
// included) and in simulated charges (to the tick).
func sameObservation(base, got obsRun) error {
	if got.rows.W != base.rows.W || !slices.Equal(got.rows.Data, base.rows.Data) {
		return fmt.Errorf("rows not byte-identical to the baseline (%d vs %d rows)", got.rows.Len(), base.rows.Len())
	}
	if got.real != base.real || got.user != base.user {
		return fmt.Errorf("simulated charges (real %v, user %v) differ from the baseline (real %v, user %v)",
			got.real, got.user, base.real, base.user)
	}
	return nil
}

// observed is one service under test plus what the harness records beside
// it to check the sink's own claims afterwards.
type observed struct {
	sink   observeSink
	svc    *serve.Service
	tracer *trace.Tracer
	// exact holds, per fingerprint, every latency the service's registry was
	// shown (warm-up runs included — the registry aggregates them all).
	exact map[string][]float64
	// objects and bytes sum the heap allocations of the measured runs.
	objects, bytes uint64
}

func newObserved(w *Workload, targets []serve.Target, sink observeSink, seed int64) (*observed, error) {
	o := &observed{sink: sink, exact: map[string][]float64{}}
	cfg := serve.Config{WorkloadCapacity: -1}
	if sink.registry {
		cfg.WorkloadCapacity = 0
	}
	if sink.trace {
		o.tracer = trace.New(trace.Config{SampleRate: 1, Seed: seed})
		cfg.Tracer = o.tracer
	}
	var err error
	o.svc, err = serve.New(w.DS.Graph.Dict, w.Estimator(), cfg, targets...)
	return o, err
}

// exec runs text once on sys through the service — inside a request trace
// when the sink traces (TraceStart is a no-op otherwise) — and returns the
// run's observable outcome and its host time.
func (o *observed) exec(ctx context.Context, sys *System, text string) (obsRun, time.Duration, error) {
	sys.Store.Clock().Reset()
	h0 := time.Now()
	rctx, _, finish := o.svc.TraceStart(ctx, "query", "")
	res, err := o.svc.ExecTextOpts(rctx, text, sys.Name, serve.ExecOpts{Profile: o.sink.profile})
	finish(err)
	host := time.Since(h0)
	if err != nil {
		return obsRun{}, 0, err
	}
	if o.sink.profile && res.Profile == nil {
		return obsRun{}, 0, fmt.Errorf("profiled execution returned no profile")
	}
	if o.sink.registry {
		o.exact[res.Fingerprint] = append(o.exact[res.Fingerprint], float64(res.Latency.Nanoseconds()))
	}
	return obsRun{rows: res.Rows, real: sys.Store.Clock().Real(), user: sys.Store.Clock().User()}, host, nil
}

// life folds the service's proof of life into r and fails when a sink that
// was on left no evidence of having worked.
func (o *observed) life(r *ObserveSinkResult) error {
	if o.sink.profile {
		n := o.svc.Stats().Profiled
		if n == 0 {
			return fmt.Errorf("no execution was counted as profiled")
		}
		r.Profiled += n
	}
	if o.sink.trace {
		kept := o.tracer.Stats().Kept
		if kept == 0 {
			return fmt.Errorf("traced service kept no traces")
		}
		r.TracesKept += kept
		for _, rec := range o.tracer.Traces() {
			r.Spans += int64(len(rec.Spans))
		}
	}
	if !o.sink.registry {
		return nil
	}
	ws := o.svc.Workload(serve.WorkloadQuery{Limit: -1})
	if ws == nil || ws.Fingerprints != len(o.exact) {
		return fmt.Errorf("registry tracks a different fingerprint set than the %d driven", len(o.exact))
	}
	r.Fingerprints += ws.Fingerprints
	r.Observations += ws.Observations
	for _, e := range ws.Entries {
		lats := o.exact[e.Fingerprint]
		if int64(len(lats)) != e.Count || e.Count != e.Latency.Count {
			return fmt.Errorf("fingerprint %s: registry counted %d executions (%d latencies), harness drove %d",
				e.Fingerprint, e.Count, e.Latency.Count, len(lats))
		}
		sort.Float64s(lats)
		for _, qv := range []struct {
			q float64
			v time.Duration
		}{{0.50, e.Latency.P50}, {0.90, e.Latency.P90}, {0.99, e.Latency.P99}} {
			if err := checkRank(lats, qv.q, float64(qv.v), ws.Epsilon); err != nil {
				return fmt.Errorf("fingerprint %s p%g: %w", e.Fingerprint, qv.q*100, err)
			}
			r.QuantileChecks++
		}
		for _, op := range e.Ops {
			r.QErrorOps++
			r.sumLogQ += math.Log(op.MeanQError)
			r.MaxQError = max(r.MaxQError, op.MaxQError)
		}
	}
	if o.sink.profile && r.QErrorOps == 0 {
		return fmt.Errorf("profiled executions folded no q-error aggregates into the registry")
	}
	return nil
}

// checkRank verifies that value v's rank interval among the sorted exact
// observations intersects [q·n - εn - 1, q·n + εn + 1] — the sketch's
// rank-error contract with one observation of slack for boundary rounding.
func checkRank(sorted []float64, q, v, eps float64) error {
	n := len(sorted)
	lo := sort.SearchFloat64s(sorted, v) // observations strictly below v
	hi := lo                             // through: observations <= v
	for hi < n && sorted[hi] == v {
		hi++
	}
	if lo == hi {
		return fmt.Errorf("value %.0f was never observed", v)
	}
	target := q * float64(n)
	slack := eps*float64(n) + 1
	if float64(hi) < target-slack || float64(lo) > target+slack {
		return fmt.Errorf("value %.0f has rank in [%d,%d], want within %.1f of %.1f (n=%d)",
			v, lo, hi, slack, target, n)
	}
	return nil
}

// measureItem is one (query, system) item: it warms every
// service's plan cache and the buffer pool, so the measured runs compare
// the sinks rather than first-touch compilation or I/O, then repeats the
// query through all[0] (the baseline) and every sink service with the
// collector off, checking each repetition's sink runs against its baseline
// run. It returns each service's minimum host time and the repetitions
// made.
func measureItem(ctx context.Context, all []*observed, sys *System, text string) (mins []time.Duration, reps int, err error) {
	for _, o := range all {
		if _, _, err := o.exec(ctx, sys, text); err != nil {
			return nil, 0, fmt.Errorf("warm-up, sink %s: %w", o.sink.name, err)
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runs := make([]obsRun, len(all))
	mins = make([]time.Duration, len(all))
	var spent time.Duration // baseline host time so far
	for ; reps < observeMinReps || spent < observeItemBudget; reps++ {
		// Each repetition starts one service later, so no service always
		// runs first after the previous one's garbage.
		for k := range all {
			i := (reps + k) % len(all)
			var objects, bytes uint64
			if reps == 0 {
				objects, bytes = heapAllocs()
			}
			run, host, err := all[i].exec(ctx, sys, text)
			if err != nil {
				return nil, 0, fmt.Errorf("sink %s: %w", all[i].sink.name, err)
			}
			if reps == 0 {
				o, b := heapAllocs()
				all[i].objects, all[i].bytes = all[i].objects+o-objects, all[i].bytes+b-bytes
			}
			runs[i] = run
			if reps == 0 || host < mins[i] {
				mins[i] = host
			}
			if i == 0 {
				spent += host
			}
		}
		for i := 1; i < len(all); i++ {
			if err := sameObservation(runs[0], runs[i]); err != nil {
				return nil, 0, fmt.Errorf("sink %s: %w", all[i].sink.name, err)
			}
		}
	}
	return mins, reps, nil
}

// heapAllocs reads the cumulative heap allocations, objects and bytes. It
// collects first: a collection flushes every processor's cached counts into
// the runtime's metrics, which otherwise lag by up to a span a size class.
func heapAllocs() (objects, bytes uint64) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// RunObserve runs the observe experiment over the given systems (normally
// BGPSystems: both engines × both schemes) on up to queries distinct
// generated texts. A broken invariant or a dead sink returns a nil report;
// a sink above ObserveMaxOverhead returns the complete report and an error
// wrapping ErrObserveOverhead.
func RunObserve(w *Workload, systems []*System, queries int, seed int64) (*ObserveReport, error) {
	targets, err := ServeTargets(systems)
	if err != nil {
		return nil, err
	}
	texts := DistinctQueryTexts(w, seed, queries)
	report := &ObserveReport{
		Triples: w.DS.Graph.Len(), Seed: seed, Queries: len(texts),
		MaxOverhead: ObserveMaxOverhead, Epsilon: sketch.DefaultEpsilon,
		Sinks: make([]ObserveSinkResult, len(observeSinks)),
	}
	for si, sink := range observeSinks {
		report.Sinks[si].Sink = sink.name
	}
	ctx := context.Background()
	sumBase := make([]time.Duration, len(observeSinks))
	sumSink := make([]time.Duration, len(observeSinks))
	heapAllocs() // the runtime builds its metric table on the first read: not a service's allocation

	// all[0] is the baseline; all[1+si] runs observeSinks[si].
	var all []*observed
	for _, sink := range append([]observeSink{{name: "off"}}, observeSinks...) {
		o, err := newObserved(w, targets, sink, seed)
		if err != nil {
			return nil, err
		}
		all = append(all, o)
	}
	for _, sys := range systems {
		cells := make([]ObserveCell, len(observeSinks))
		for _, text := range texts {
			mins, reps, err := measureItem(ctx, all, sys, text)
			if err != nil {
				return nil, fmt.Errorf("bench: observe: %s, query %q: %w", sys.Name, text, err)
			}
			report.Reps += reps
			for si := range cells {
				cells[si].BaseMs += float64(mins[0].Microseconds()) / 1e3
				cells[si].SinkMs += float64(mins[1+si].Microseconds()) / 1e3
				sumBase[si] += mins[0]
				sumSink[si] += mins[1+si]
			}
		}
		for si, c := range cells {
			c.Sink, c.System = observeSinks[si].name, sys.Name
			if c.BaseMs > 0 {
				c.Ratio = c.SinkMs / c.BaseMs
			}
			report.Cells = append(report.Cells, c)
		}
	}
	for si, o := range all[1:] {
		if err := o.life(&report.Sinks[si]); err != nil {
			return nil, fmt.Errorf("bench: observe: sink %s: %w", o.sink.name, err)
		}
	}

	items := float64(max(1, len(systems)*len(texts)))
	report.BaseAllocsPerOp, report.BaseBytesPerOp = float64(all[0].objects)/items, float64(all[0].bytes)/items
	var over []string
	for si := range report.Sinks {
		r := &report.Sinks[si]
		r.AllocsPerOp, r.BytesPerOp = float64(all[1+si].objects)/items, float64(all[1+si].bytes)/items
		if r.QErrorOps > 0 {
			r.MeanQError = math.Exp(r.sumLogQ / float64(r.QErrorOps))
		}
		if sumBase[si] > 0 {
			r.OverheadRatio = float64(sumSink[si]) / float64(sumBase[si])
		}
		if r.OverheadRatio > ObserveMaxOverhead {
			over = append(over, fmt.Sprintf("%s %.3fx", r.Sink, r.OverheadRatio))
		}
	}
	if len(over) > 0 {
		return report, fmt.Errorf("bench: observe: %w %.2fx: %s", ErrObserveOverhead, ObserveMaxOverhead, strings.Join(over, ", "))
	}
	return report, nil
}

// FormatObserve renders the report for the console: one overhead ratio and
// proof of life per sink, then the per-system cells.
func FormatObserve(r *ObserveReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "observation overhead through the serving layer, %d generated queries (seed %d), hot, min host time over %d repetitions in all\n",
		r.Queries, r.Seed, r.Reps)
	fmt.Fprintf(&b, "every sink-on execution byte-identical to the all-sinks-off baseline, simulated charges equal\n\n")
	fmt.Fprintf(&b, "%-9s %9s %10s %10s  %s\n", "sink", "overhead", "allocs/op", "B/op", "proof of life")
	fmt.Fprintf(&b, "%-9s %9s %10.1f %10.0f  (baseline, every sink off)\n", "off", "", r.BaseAllocsPerOp, r.BaseBytesPerOp)
	for _, s := range r.Sinks {
		var life []string
		if s.Profiled > 0 {
			life = append(life, fmt.Sprintf("%d profiled", s.Profiled))
		}
		if s.TracesKept > 0 {
			life = append(life, fmt.Sprintf("%d traces kept (%d spans)", s.TracesKept, s.Spans))
		}
		if s.Observations > 0 {
			life = append(life, fmt.Sprintf("%d fingerprints over %d observations, %d quantiles within eps=%g",
				s.Fingerprints, s.Observations, s.QuantileChecks, r.Epsilon))
		}
		if s.QErrorOps > 0 {
			life = append(life, fmt.Sprintf("%d operator q-errors (mean %.2f, max %.2f)", s.QErrorOps, s.MeanQError, s.MaxQError))
		}
		fmt.Fprintf(&b, "%-9s %8.3fx %10.1f %10.0f  %s\n", s.Sink, s.OverheadRatio, s.AllocsPerOp, s.BytesPerOp, strings.Join(life, "; "))
	}
	fmt.Fprintf(&b, "(limit: %.2fx)\n\n", r.MaxOverhead)
	fmt.Fprintf(&b, "%-9s %-18s %10s %10s %8s\n", "sink", "system", "base ms", "sink ms", "ratio")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-9s %-18s %10.3f %10.3f %7.3fx\n", c.Sink, c.System, c.BaseMs, c.SinkMs, c.Ratio)
	}
	return b.String()
}
