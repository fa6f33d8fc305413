package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/serve"
)

// The traced run. The program has no spans of its own on this path yet, so
// the benchmark records them from outside: for each sampled op it calls the
// layers' public functions one after another — the same sequence the HTTP
// handler runs inside one call — with a span around each call, then runs
// the handler on the same op for the whole to compare against. End-to-end
// metrics never come from here.

// span is one recorded call. Spans of one op share Trace; Parent is the
// span that caused this one, 0 for a root.
type span struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out, if asked, when the
// run ends. One goroutine uses it.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(trace, parent uint64, name string) int {
	t.spans = append(t.spans, span{
		Trace: trace, Span: uint64(len(t.spans) + 1), Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) span {
	t.spans[i].End = int64(time.Since(t.epoch))
	return t.spans[i]
}

func (t *tracer) id(i int) uint64 { return t.spans[i].Span }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time: the spans'
// durations minus their children's. core.execute and bgp.parse_update are
// replays of work done inside the call they explain, issued right after it
// and attributed to it as children; self times are therefore taken by
// duration, not by interval overlap, and summed per name before the
// subtraction, so that timing noise on one op cannot push a layer below
// zero.
func selfTimes(spans []span) map[string]time.Duration {
	name := make(map[uint64]string, len(spans))
	for _, s := range spans {
		name[s.Span] = s.Name
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur()
		if s.Parent != 0 {
			out[name[s.Parent]] -= s.dur()
		}
	}
	for k, v := range out {
		if v < 0 {
			out[k] = 0
		}
	}
	return out
}

// traceSample is the part of the workload the staged run replays: a fixed
// number of ops, not a timed one, so that the exact per-layer counts repeat.
func traceSample(wl *workload) []op {
	if wl.mixed != nil {
		// One session's next 64 commits, each with its reads: 8 of the 512
		// reads are q1 or q8, which carry nearly all of the sample's time —
		// with fewer, trace.coverage is the ratio of two single timings.
		return wl.mixed.sessionOps(wl.mixed.sessions[0], 64)
	}
	n := map[string]int{
		wlPaper:  24, // half a pass: each op here runs for tens of milliseconds
		wlStar:   100,
		wlLookup: 4000,
	}[wl.name]
	return wl.lanes(0)[0][:n]
}

// staged accumulates what the staged replay measured.
type staged struct {
	tr                           tracer
	canon, prepare, exec, core   []float64 // µs per query op
	decode, encode, stages, root []float64
	handler                      []float64
	share                        []float64
	cells, bytes                 int64
	coreByScheme                 map[string][]float64
	peakBytes, batches           int64
	parseUpdate                  []float64
	attempted, failed            int
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// stageQuery runs one query op stage by stage, then whole.
func (st *staged) stageQuery(sys *system, o *op, targets map[string]core.PhysicalSource, id uint64, enc *json.Encoder, buf *bytes.Buffer, w *respWriter) error {
	ctx := context.Background()
	// Prime: one untimed handler call, so every timed call below finds the
	// plan cached and the data warm, as the steady state does.
	clear(w.hdr)
	w.body = w.body[:0]
	sys.handler.ServeHTTP(w, o.request())

	t := &st.tr
	root := t.begin(id, 0, "op")
	a := t.begin(id, t.id(root), "bgp.canonicalize")
	_ = bgp.CanonicalText(o.text)
	sa := t.end(a)
	b := t.begin(id, t.id(root), "serve.prepare")
	p, err := sys.svc.Prepare(o.text)
	sb := t.end(b)
	if err != nil {
		return err
	}
	c := t.begin(id, t.id(root), "serve.exec")
	res, err := sys.svc.Exec(ctx, p, o.system)
	sc := t.end(c)
	if err != nil {
		return err
	}
	d := t.begin(id, t.id(root), "serve.decode")
	rows := sys.svc.DecodeRowsNull(res, -1)
	sd := t.end(d)
	e := t.begin(id, t.id(root), "serve.encode")
	buf.Reset()
	err = enc.Encode(serve.QueryResponse{
		System: res.System, Version: res.Version, Columns: res.Cols, Rows: rows,
		RowCount: res.Rows.Len(), Cached: res.Cached,
		LatencyMs: float64(res.Latency.Microseconds()) / 1e3,
		QueuedMs:  float64(res.Queued.Microseconds()) / 1e3,
	})
	se := t.end(e)
	sroot := t.end(root)
	if err != nil {
		return err
	}

	// The executor alone: the same compiled plan on the same target, with
	// the service's execution options.
	x := t.begin(id, t.id(c), "core.execute")
	_, _, ctr, err := core.ExecutePlanCtx(ctx, targets[o.system], p.Compiled.Root, core.ExecOptions{Workers: 1, Streaming: true})
	sx := t.end(x)
	if err != nil {
		return err
	}

	clear(w.hdr)
	w.code = http.StatusOK
	w.body = w.body[:0]
	h := t.begin(id, 0, "http.handler")
	sys.handler.ServeHTTP(w, o.request())
	sh := t.end(h)

	st.attempted++
	var qb queryBody
	if w.code != http.StatusOK || json.Unmarshal(w.body, &qb) != nil || !o.ref.matches(qb.Rows) {
		st.failed++
	}
	st.canon = append(st.canon, us(sa.dur()))
	st.prepare = append(st.prepare, us(sb.dur()))
	st.exec = append(st.exec, us(sc.dur()))
	st.core = append(st.core, us(sx.dur()))
	st.decode = append(st.decode, us(sd.dur()))
	st.encode = append(st.encode, us(se.dur()))
	st.stages = append(st.stages, us(sa.dur()+sb.dur()+sc.dur()+sd.dur()+se.dur()))
	st.root = append(st.root, us(sroot.dur()))
	st.handler = append(st.handler, us(sh.dur()))
	st.share = append(st.share, float64(sx.dur())/float64(sh.dur()))
	for _, r := range rows {
		st.cells += int64(len(r))
	}
	st.bytes += int64(buf.Len())
	st.coreByScheme[o.system] = append(st.coreByScheme[o.system], us(sx.dur()))
	st.peakBytes += ctr.PeakBytes
	st.batches += int64(ctr.SourceBatches)
	return nil
}

// stageUpdate runs one commit stage by stage: the parse alone, then the
// mutator (which parses again — the parse span is attributed, like
// core.execute, by duration).
func (st *staged) stageUpdate(sys *system, o *op, id uint64) error {
	t := &st.tr
	root := t.begin(id, 0, "op")
	b := t.begin(id, t.id(root), "serve.apply_update")
	res, err := sys.mut.ApplyUpdate(context.Background(), o.text)
	t.end(b)
	t.end(root)
	if err != nil {
		return err
	}
	a := t.begin(id, t.id(b), "bgp.parse_update")
	_, err = bgp.ParseUpdate(o.text)
	sa := t.end(a)
	if err != nil {
		return err
	}
	st.attempted++
	if res.Inserted+res.Deleted != o.changes {
		st.failed++
	}
	st.parseUpdate = append(st.parseUpdate, us(sa.dur()))
	return nil
}

// runTraced is the -trace 1 run: one set-up, one warm and one measured
// untraced round (for the counters only a full-concurrency round has), the
// staged replay, then the probes of the layers no query op isolates.
func runTraced(cfg config, spansPath string) (*result, error) {
	cfg = cfg.withDefaults()
	cfg.setups = 1
	cfg.rounds = 1
	p, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	sys, wl, cells := p.sys, p.wl, p.cells
	cache0 := sys.svc.Stats().Cache
	m, err := measure(cfg, sys, wl)
	if err != nil {
		return nil, err
	}
	cache1 := sys.svc.Stats().Cache
	round := m.rounds[0]

	// Staged replay, one client.
	sample := traceSample(wl)
	targets := map[string]core.PhysicalSource{}
	st := &staged{tr: tracer{epoch: time.Now()}, coreByScheme: map[string][]float64{}}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	w := &respWriter{hdr: http.Header{}}
	for i := range sample {
		o := &sample[i]
		if o.update {
			if err := st.stageUpdate(sys, o, uint64(i+1)); err != nil {
				return nil, err
			}
			continue
		}
		// Commits replace the served targets, so look them up per op.
		for _, t := range sys.svc.Targets() {
			targets[t.Name] = t.Src
		}
		if err := st.stageQuery(sys, o, targets, uint64(i+1), enc, &buf, w); err != nil {
			return nil, err
		}
	}
	if wl.mixed != nil {
		if err := checkFinalState(sys, wl.mixed); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: final state:", err)
			st.failed = st.attempted
		}
	}
	if spansPath != "" {
		if err := st.tr.write(spansPath); err != nil {
			return nil, err
		}
	}

	met := map[string]float64{}
	if err := st.distinctCells(sys, sample, met); err != nil {
		return nil, err
	}
	if err := probeCold(sys, sample, met); err != nil {
		return nil, err
	}
	probeLoopback(sys, wl.probeOps, met)
	if err := probeWrites(sys, wl.probeOps, met); err != nil {
		return nil, err
	}
	if err := probeStores(sys, met); err != nil {
		return nil, err
	}
	if err := probeIngest(sys, met); err != nil {
		return nil, err
	}

	// Coverage is taken over the query ops, which have a handler call to be
	// compared with; the op span's own self time — the gaps between stages,
	// which is the span bookkeeping — is tracing overhead, not coverage.
	queryTrace := map[uint64]bool{}
	for _, s := range st.tr.spans {
		if s.Name == "http.handler" {
			queryTrace[s.Trace] = true
		}
	}
	var querySpans []span
	for _, s := range st.tr.spans {
		if queryTrace[s.Trace] {
			querySpans = append(querySpans, s)
		}
	}
	var stageSelf time.Duration
	for name, d := range selfTimes(querySpans) {
		if name != "http.handler" && name != "op" {
			stageSelf += d
		}
	}
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	diff := func(a, b []float64) []float64 {
		d := make([]float64, len(a))
		for i := range a {
			d[i] = a[i] - b[i]
		}
		return d
	}
	met["bgp.canonicalize_us"] = mean(st.canon)
	met["bgp.estimator_build_s"] = sys.estimatorS
	met["serve.prepare_hit_us"] = mean(st.prepare)
	if n := (cache1.Hits + cache1.Misses + cache1.Coalesced) - (cache0.Hits + cache0.Misses + cache0.Coalesced); n > 0 {
		met["serve.plan_cache_hit_ratio"] = 1 - float64(cache1.Misses-cache0.Misses)/float64(n)
	}
	// Differences of two timings of the same op: the median is taken per op,
	// so that on a 40 ms query the answer is not the noise of the means.
	met["serve.exec_overhead_us"] = median(diff(st.exec, st.core))
	met["serve.queue_wait_us"] = 1e3 * round.queuedMs / float64(round.queries)
	if st.cells > 0 {
		met["serve.decode_ns_per_cell"] = 1e3 * sum(st.decode) / float64(st.cells)
	}
	met["serve.encode_ns_per_byte"] = 1e3 * sum(st.encode) / float64(st.bytes)
	met["serve.http_overhead_us"] = median(diff(st.handler, st.stages))
	met["serve.response_bytes_per_op"] = float64(round.respBytes) / float64(round.queries)
	for i, name := range schemeNames {
		met["core.execute_us."+schemeKeys[i]] = mean(st.coreByScheme[name])
	}
	met["core.execute_share"] = median(st.share)
	met["core.peak_bytes_per_op"] = float64(st.peakBytes) / float64(len(st.core))
	met["core.source_batches_per_op"] = float64(st.batches) / float64(len(st.core))
	var coldBytes, hits, miss int64
	var coldIO, coldReal, hotUser float64
	for _, c := range cells {
		coldBytes += c.coldBytes
		coldIO += c.coldIO
		coldReal += c.coldReal
		hotUser += c.hotUser
		hits += c.hotHits
		miss += c.hotMiss
	}
	met["simio.bytes_read_per_op_cold"] = float64(coldBytes) / float64(len(cells))
	met["simio.io_share_cold"] = coldIO / coldReal
	if hits+miss > 0 {
		met["simio.pool_hit_ratio_hot"] = float64(hits) / float64(hits+miss)
	}
	met["simio.cpu_ns_per_op_hot"] = 1e9 * hotUser / float64(len(cells))
	met["datagen.generate_s"] = sys.generateS
	met["runtime.mallocs_per_op"] = float64(round.mallocs) / float64(round.ops)
	met["runtime.gc_pause_ms_per_s"] = float64(round.gcPauseNs) / 1e6 / round.wallS
	met["trace.coverage"] = us(stageSelf) / sum(st.handler)
	met["trace.overhead_ratio"] = sum(st.root) / sum(st.handler)
	if len(st.parseUpdate) > 0 {
		// mixed-rw staged real commits; the other workloads take this
		// figure from the write probe.
		met["bgp.parse_update_us"] = mean(st.parseUpdate)
	}

	res := &result{
		Attempted: m.attempted + st.attempted,
		Failed:    m.failed + st.failed,
		Metrics:   map[string]metricValue{},
		extra:     map[string]metricValue{},
		env:       envOf(cfg, sys, len(m.rounds)),
		digest:    m.digest,
	}
	res.Correct = res.Failed == 0
	res.env["staged_ops"] = fmt.Sprint(len(sample))
	res.env["spans"] = fmt.Sprint(len(st.tr.spans))
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{met[d.Name], d.Unit}
	}
	return res, nil
}

// distinctCells runs every distinct (text, scheme) of the sample twice
// more: once on the materializing executor, timed (the host cost behind the
// simulated tables), and once profiled, for the rows the leaves produced
// against the rows the root returned.
func (st *staged) distinctCells(sys *system, sample []op, met map[string]float64) error {
	ctx := context.Background()
	targets := map[string]core.PhysicalSource{}
	for _, t := range sys.svc.Targets() {
		targets[t.Name] = t.Src
	}
	seen := map[string]bool{}
	mat := map[string][]float64{}
	var leafRows, rootRows int64
	for i := range sample {
		o := &sample[i]
		if o.update || seen[o.url.RawQuery] {
			continue
		}
		seen[o.url.RawQuery] = true
		p, err := sys.svc.Prepare(o.text)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, _, err := core.ExecutePlanCtx(ctx, targets[o.system], p.Compiled.Root, core.ExecOptions{Workers: 1}); err != nil {
			return err
		}
		mat[o.system] = append(mat[o.system], us(time.Since(t0)))
		_, _, tr, err := core.ExecutePlanCtx(ctx, targets[o.system], p.Compiled.Root, core.ExecOptions{Workers: 1, Streaming: true, Profile: true})
		if err != nil {
			return err
		}
		if tr.Profile != nil {
			rootRows += int64(tr.Profile.Rows)
			tr.Profile.Walk(func(n *core.OpProfile) {
				if len(n.Children) == 0 {
					leafRows += int64(n.Rows)
				}
			})
		}
	}
	for i, name := range schemeNames {
		met["core.materialize_us."+schemeKeys[i]] = mean(mat[name])
	}
	if rootRows == 0 {
		rootRows = 1
	}
	met["core.rows_scanned_per_row_out"] = float64(leafRows) / float64(rootRows)
	return nil
}

// probeCold measures what the plan cache saves: Prepare on a service with
// the cache disabled (every call compiles), and the parse and compile steps
// alone, over the distinct texts of the sample.
func probeCold(sys *system, sample []op, met map[string]float64) error {
	cold, err := serve.New(sys.svc.Dict(), sys.w.Estimator(), serve.Config{CacheSize: -1, ExecWorkers: 1}, sys.svc.Targets()...)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var miss, compile []float64
	for i := range sample {
		o := &sample[i]
		if o.update || seen[o.text] {
			continue
		}
		seen[o.text] = true
		t0 := time.Now()
		if _, err := cold.Prepare(o.text); err != nil {
			return err
		}
		miss = append(miss, us(time.Since(t0)))
		t1 := time.Now()
		q, err := bgp.Parse(o.text)
		if err != nil {
			return err
		}
		if _, err := bgp.Compile(q, sys.svc.Dict(), sys.w.Estimator()); err != nil {
			return err
		}
		compile = append(compile, us(time.Since(t1)))
	}
	met["serve.prepare_miss_us"] = mean(miss)
	met["bgp.compile_us"] = mean(compile)
	return nil
}
