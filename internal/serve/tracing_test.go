package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
	"blackswan/internal/trace"
)

// TestTraceByteIdentity is this PR's acceptance check: with sampling at
// 100%, a traced execution (plain and profiled) returns byte-identical
// rows and charges the simulated clock identically to an untraced one, on
// every scheme. Tracing must observe, never perturb.
func TestTraceByteIdentity(t *testing.T) {
	w, sys, _ := fixture(t)
	_ = w
	texts := queryTexts(t, 3)
	ctx := context.Background()
	plainSvc := newService(t, serve.Config{})
	traced := newService(t, serve.Config{
		Tracer: trace.New(trace.Config{SampleRate: 1, Seed: 99}),
	})
	for _, s := range sys {
		for _, text := range texts {
			run := func(svc *serve.Service, opt serve.ExecOpts, traceIt bool) (*serve.Result, int64, int64) {
				t.Helper()
				s.Store.Clock().Reset()
				ectx := ctx
				finish := func(error) {}
				if traceIt {
					ectx, _, finish = svc.TraceStart(ctx, "query", "")
				}
				res, err := svc.ExecTextOpts(ectx, text, s.Name, opt)
				finish(err)
				if err != nil {
					t.Fatal(err)
				}
				return res, int64(s.Store.Clock().User()), int64(s.Store.Clock().IO())
			}
			// Warm the buffer pool first so every measured run is hot
			// and the simulated I/O comparable (cold first touches pay
			// page reads later runs serve from the pool).
			run(plainSvc, serve.ExecOpts{}, false)
			base, cpu0, io0 := run(plainSvc, serve.ExecOpts{}, false)
			if base.TraceID != "" {
				t.Fatalf("%s: untraced execution carries a trace ID", s.Name)
			}
			for _, profile := range []bool{false, true} {
				res, cpu, io := run(traced, serve.ExecOpts{Profile: profile}, true)
				if res.TraceID == "" {
					t.Fatalf("%s: traced execution lacks a trace ID", s.Name)
				}
				if res.Rows.W != base.Rows.W || len(res.Rows.Data) != len(base.Rows.Data) {
					t.Fatalf("%s (profile=%v): traced result shape differs",
						s.Name, profile)
				}
				for i := range base.Rows.Data {
					if res.Rows.Data[i] != base.Rows.Data[i] {
						t.Fatalf("%s (profile=%v): traced result not byte-identical",
							s.Name, profile)
					}
				}
				if cpu != cpu0 || io != io0 {
					t.Fatalf("%s (profile=%v): traced charges (cpu %d, io %d) differ from untraced (cpu %d, io %d)",
						s.Name, profile, cpu, io, cpu0, io0)
				}
			}
		}
	}
	// Every traced request landed in the ring at rate 1.0.
	st := traced.Tracer().Stats()
	if want := int64(len(sys) * len(texts) * 2); st.Started != want || st.Kept != want {
		t.Fatalf("tracer counters started=%d kept=%d, want %d each", st.Started, st.Kept, want)
	}
	if st.Forced != 0 || st.Dropped != 0 {
		t.Fatalf("unexpected forced=%d dropped=%d at rate 1.0", st.Forced, st.Dropped)
	}
}

// TestTraceSpanStructure checks the span tree one traced, profiled request
// produces: root → plan.cache (→ bgp.parse → bgp.plan on a cold miss),
// queue.wait, execute — named for the executor's configuration — and the
// per-operator bridge spans under execute.
func TestTraceSpanStructure(t *testing.T) {
	for _, config := range []string{"pipelined", "drained"} {
		t.Run(config, func(t *testing.T) { testTraceSpanStructure(t, config) })
	}
}

func testTraceSpanStructure(t *testing.T, config string) {
	tracer := trace.New(trace.Config{SampleRate: 1, Seed: 7})
	svc := newService(t, serve.Config{Tracer: tracer, Materialize: config == "drained"})
	text := queryTexts(t, 1)[0]

	ctx, tr, finish := svc.TraceStart(context.Background(), "query", "")
	res, err := svc.ExecTextOpts(ctx, text, svc.Systems()[0], serve.ExecOpts{Profile: true})
	finish(err)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != tr.ID().String() {
		t.Fatalf("result trace ID %q != trace %q", res.TraceID, tr.ID())
	}
	rec, ok := tracer.Get(res.TraceID)
	if !ok {
		t.Fatal("traced request missing from the ring")
	}
	byName := map[string]trace.SpanData{}
	ops := 0
	for _, sp := range rec.Spans {
		if strings.HasPrefix(sp.Name, "op:") {
			ops++
			continue
		}
		byName[sp.Name] = sp
	}
	for _, name := range []string{"query", "plan.cache", "bgp.parse", "bgp.plan", "queue.wait", "execute"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("trace lacks span %q; have %v", name, rec.Spans)
		}
	}
	if ops == 0 {
		t.Fatal("profiled traced request produced no op: bridge spans")
	}
	if !slices.Contains(byName["execute"].Attrs, trace.String("configuration", config)) {
		t.Fatalf("execute span attributes %v, want configuration=%s", byName["execute"].Attrs, config)
	}
	// Parent links: plan.cache under the root, bgp.parse under plan.cache,
	// op spans under execute.
	root := byName["query"]
	if rec.RootSpan != root.SpanID {
		t.Fatalf("root span ID mismatch: %q vs %q", rec.RootSpan, root.SpanID)
	}
	if byName["plan.cache"].Parent != root.SpanID {
		t.Fatal("plan.cache not parented under the root span")
	}
	if byName["bgp.parse"].Parent != byName["plan.cache"].SpanID {
		t.Fatal("bgp.parse not parented under plan.cache")
	}
	execID := byName["execute"].SpanID
	for _, sp := range rec.Spans {
		if strings.HasPrefix(sp.Name, "op:") && sp.Parent == execID {
			return
		}
	}
	t.Fatal("no op: span parented under execute")
}

// TestTraceErroredCapture drives an execution-time failure through a
// traced service: the trace is tail-captured (forced) even though the
// head decision sampled nothing, the slow ring records the error with its
// class and trace ID, and the structured log line carries the same ID.
func TestTraceErroredCapture(t *testing.T) {
	w, sys, est := fixture(t)
	var src core.PhysicalSource
	for _, s := range sys {
		if ps, ok := s.DB.(core.PhysicalSource); ok {
			src = ps
			break
		}
	}
	if src == nil {
		t.Fatal("no servable fixture system")
	}
	var logBuf bytes.Buffer
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 13})
	svc, err := serve.New(w.DS.Graph.Dict, est, serve.Config{
		Tracer:      tracer,
		Logger:      slog.New(slog.NewJSONHandler(&logBuf, nil)),
		SlowLogSize: 8, // arms the ring with no latency threshold
	}, serve.Target{Name: "flaky", Src: failingSource{src}})
	if err != nil {
		t.Fatal(err)
	}

	text := queryTexts(t, 1)[0]
	ctx, tr, finish := svc.TraceStart(context.Background(), "query", "")
	_, execErr := svc.ExecText(ctx, text, "flaky")
	finish(execErr)
	if execErr == nil {
		t.Fatal("failing source served successfully")
	}
	id := tr.ID().String()

	rec, ok := tracer.Get(id)
	if !ok {
		t.Fatal("errored trace not tail-captured")
	}
	if !rec.Forced || rec.Sampled {
		t.Fatalf("errored trace forced=%v sampled=%v, want forced, unsampled", rec.Forced, rec.Sampled)
	}
	if rec.Error == "" {
		t.Fatal("captured trace lacks the root error")
	}

	entries := svc.SlowQueries()
	if len(entries) != 1 {
		t.Fatalf("slow ring holds %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Error == "" || e.Class != serve.ErrClassExec {
		t.Fatalf("errored entry error=%q class=%q, want exec-class error", e.Error, e.Class)
	}
	if e.TraceID != id {
		t.Fatalf("slow entry trace ID %q != request %q", e.TraceID, id)
	}
	if e.Rows != 0 {
		t.Fatalf("errored entry reports %d rows", e.Rows)
	}
	if e.Version != svc.Version() {
		t.Fatalf("errored entry version %d, want %d", e.Version, svc.Version())
	}
	if !strings.Contains(logBuf.String(), id) {
		t.Fatalf("structured log lacks the trace ID %s:\n%s", id, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "query failed") {
		t.Fatal("structured log lacks the failure line")
	}
	// The failure line carries the same facts as its siblings.
	line := logRecord(t, &logBuf, "query failed")
	if got, _ := line["version"].(float64); uint64(got) != svc.Version() {
		t.Fatalf("failure line version = %v, want %d", line["version"], svc.Version())
	}
	for _, key := range []string{"cached", "queued"} {
		if _, ok := line[key]; !ok {
			t.Fatalf("failure line lacks %q: %v", key, line)
		}
	}
}

// logRecord returns the first JSON log line in buf whose message is msg.
func logRecord(t *testing.T, buf *bytes.Buffer, msg string) map[string]any {
	t.Helper()
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var line map[string]any
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("log line is not JSON: %q", raw)
		}
		if line["msg"] == msg {
			return line
		}
	}
	t.Fatalf("structured log lacks a %q line:\n%s", msg, buf.String())
	return nil
}

// failingSource wraps a real scheme but fails every property scan — a
// deterministic execution-time (exec-class) error.
type failingSource struct {
	core.PhysicalSource
}

func (f failingSource) StreamProp(p, s, o rdf.ID, need core.ScanCols, batchRows int) (core.RelIter, error) {
	return nil, errors.New("simulated disk failure")
}

// TestTraceHTTPJoin is the end-to-end join check over HTTP: one request's
// trace ID appears, identically, in the /query response (body and
// traceparent header), in /debug/traces and /debug/traces/<id> (native
// and OTLP shapes), in the slow-log entry, and in the structured log line.
func TestTraceHTTPJoin(t *testing.T) {
	var logBuf bytes.Buffer
	tracer := trace.New(trace.Config{SampleRate: 1, Seed: 21})
	svc := newService(t, serve.Config{
		Tracer:             tracer,
		Logger:             slog.New(slog.NewJSONHandler(&logBuf, nil)),
		SlowQueryThreshold: time.Nanosecond,
	})
	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()
	text := queryTexts(t, 1)[0]

	body, _ := json.Marshal(serve.QueryRequest{Q: text, Profile: true})
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var qr serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.TraceID == "" {
		t.Fatal("/query response lacks a trace ID")
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, qr.TraceID) {
		t.Fatalf("traceparent response header %q does not carry trace ID %s", tp, qr.TraceID)
	}

	// The list endpoint knows the trace.
	lresp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list serve.TracesResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	found := false
	for _, r := range list.Traces {
		if r.TraceID == qr.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("/debug/traces does not list trace %s", qr.TraceID)
	}
	if list.Stats.Kept < 1 {
		t.Fatalf("tracer stats report %d kept traces", list.Stats.Kept)
	}

	// Fetch by ID, native shape.
	gresp, err := http.Get(srv.URL + "/debug/traces/" + qr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorded
	if err := json.NewDecoder(gresp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK || rec.TraceID != qr.TraceID {
		t.Fatalf("/debug/traces/%s returned status %d trace %q", qr.TraceID, gresp.StatusCode, rec.TraceID)
	}
	if rec.Root != "query" || len(rec.Spans) < 4 {
		t.Fatalf("fetched trace root=%q spans=%d", rec.Root, len(rec.Spans))
	}

	// OTLP shape.
	oresp, err := http.Get(srv.URL + "/debug/traces/" + qr.TraceID + "?format=otlp")
	if err != nil {
		t.Fatal(err)
	}
	var otlp trace.OTLPExport
	if err := json.NewDecoder(oresp.Body).Decode(&otlp); err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if len(otlp.ResourceSpans) != 1 || len(otlp.ResourceSpans[0].ScopeSpans[0].Spans) != len(rec.Spans) {
		t.Fatal("OTLP export shape mismatch")
	}
	if otlp.ResourceSpans[0].ScopeSpans[0].Spans[0].TraceID != qr.TraceID {
		t.Fatal("OTLP spans carry the wrong trace ID")
	}

	// The slow-log entry joins on the same ID.
	sresp, err := http.Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var entries []serve.SlowEntry
	if err := json.NewDecoder(sresp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(entries) != 1 || entries[0].TraceID != qr.TraceID {
		t.Fatalf("slow log does not join: %+v", entries)
	}
	if entries[0].Version != qr.Version {
		t.Fatalf("slow entry version %d, response version %d", entries[0].Version, qr.Version)
	}

	// And so does the structured log line.
	if !strings.Contains(logBuf.String(), qr.TraceID) {
		t.Fatalf("structured log lacks trace ID %s:\n%s", qr.TraceID, logBuf.String())
	}
	if got, _ := logRecord(t, &logBuf, "slow query")["version"].(float64); uint64(got) != qr.Version {
		t.Fatalf("slow-query line version = %v, want %d", got, qr.Version)
	}

	// Unknown IDs are 404; a service without a tracer serves 404 for the
	// whole /debug/traces surface.
	nresp, err := http.Get(srv.URL + "/debug/traces/ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace ID returned %d", nresp.StatusCode)
	}
	untraced := httptest.NewServer(serve.NewHandler(newService(t, serve.Config{})))
	defer untraced.Close()
	uresp, err := http.Get(untraced.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced /debug/traces returned %d", uresp.StatusCode)
	}
}

// TestTraceparentIngress: an incoming W3C traceparent header is honoured —
// the request joins the caller's trace, inherits its sampling flag, and
// the root span is parented under the caller's span.
func TestTraceparentIngress(t *testing.T) {
	tracer := trace.New(trace.Config{SampleRate: 0, Seed: 5}) // head samples nothing
	svc := newService(t, serve.Config{Tracer: tracer})
	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()
	text := queryTexts(t, 1)[0]

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/query?q="+urlQueryEscape(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+callerTrace+"-"+callerSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.TraceID != callerTrace {
		t.Fatalf("response trace ID %q, want the caller's %q", qr.TraceID, callerTrace)
	}
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+callerTrace+"-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("outgoing traceparent %q does not continue the caller's sampled trace", tp)
	}
	// Sampled flag carried over, so the trace was retained despite rate 0.
	rec, ok := tracer.Get(callerTrace)
	if !ok {
		t.Fatal("caller-sampled trace not retained")
	}
	if rec.Forced {
		t.Fatal("caller-sampled trace marked as tail-forced")
	}
	rootFound := false
	for _, sp := range rec.Spans {
		if sp.SpanID == rec.RootSpan {
			rootFound = true
			if sp.Parent != callerSpan {
				t.Fatalf("root span parent %q, want the caller's span %q", sp.Parent, callerSpan)
			}
		}
	}
	if !rootFound {
		t.Fatal("retained trace lacks its root span")
	}

	// An unsampled caller decision is honoured too: the trace is dropped.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/query?q="+urlQueryEscape(text), nil)
	req2.Header.Set("traceparent", "00-aaaabbbbccccddddeeeeffff00001111-1122334455667788-00")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if _, ok := tracer.Get("aaaabbbbccccddddeeeeffff00001111"); ok {
		t.Fatal("caller-unsampled trace was retained without a tail reason")
	}
}

func urlQueryEscape(s string) string { return url.QueryEscape(s) }
