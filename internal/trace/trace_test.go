package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceparentRoundTrip: minted traceparent values parse back to the
// same IDs and flags, and the root span links to the incoming parent.
func TestTraceparentRoundTrip(t *testing.T) {
	tracer := New(Config{SampleRate: 1, Seed: 7})
	tr, root := tracer.StartRequest("query", "")
	if tr.ID().IsZero() || root.ID().IsZero() {
		t.Fatal("minted zero IDs")
	}
	h := tr.Traceparent()
	tid, parent, flags, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("minted traceparent %q does not parse", h)
	}
	if tid != tr.ID() || parent != root.ID() || flags&FlagSampled == 0 {
		t.Fatalf("round trip mismatch: %q -> %v %v %02x", h, tid, parent, flags)
	}

	// An incoming traceparent carries its IDs and sampling flag over.
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr2, root2 := tracer.StartRequest("query", in)
	if got := tr2.ID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("incoming trace ID not honoured: %s", got)
	}
	if !tr2.Sampled() {
		t.Fatal("incoming sampled flag not honoured")
	}
	root2.End()
	tracer.Finish(tr2, false)
	rec, ok := tracer.Get("4bf92f3577b34da6a3ce929d0e0e4736")
	if !ok {
		t.Fatal("sampled incoming trace not recorded")
	}
	// The root span's parent is the remote caller's span.
	var found bool
	for _, sp := range rec.Spans {
		if sp.SpanID == rec.RootSpan {
			found = true
			if sp.Parent != "00f067aa0ba902b7" {
				t.Fatalf("root parent = %q, want the remote span", sp.Parent)
			}
		}
	}
	if !found {
		t.Fatal("recorded trace lacks its root span")
	}

	// An unsampled incoming flag means dropped unless forced.
	in0 := "00-aaf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"
	tr3, root3 := tracer.StartRequest("query", in0)
	if tr3.Sampled() {
		t.Fatal("unsampled incoming flag not honoured")
	}
	root3.End()
	tracer.Finish(tr3, false)
	if _, ok := tracer.Get("aaf92f3577b34da6a3ce929d0e0e4736"); ok {
		t.Fatal("unsampled trace recorded without force")
	}
}

// TestTraceparentMalformed: malformed headers mint fresh IDs instead of
// propagating garbage.
func TestTraceparentMalformed(t *testing.T) {
	for _, h := range []string{
		"",
		"00-short-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // invalid version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e473G-00f067aa0ba902b7-01",
		// Found by FuzzTraceparent: uppercase hex is outside the W3C grammar
		// and did not round-trip through FormatTraceparent.
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
	} {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
		tracer := New(Config{SampleRate: 1, Seed: 3})
		tr, _ := tracer.StartRequest("query", h)
		if tr.ID().IsZero() {
			t.Errorf("no fresh ID minted for %q", h)
		}
	}
	// Forward compatibility: a higher version with trailing fields parses.
	if _, _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever"); !ok {
		t.Error("future-versioned traceparent rejected")
	}
}

// TestSamplingDeterministicUnderSeed: two tracers with the same seed mint
// the same trace IDs and take the same sampling decisions; the decision
// is a pure function of the trace ID.
func TestSamplingDeterministicUnderSeed(t *testing.T) {
	a := New(Config{SampleRate: 0.5, Seed: 42})
	b := New(Config{SampleRate: 0.5, Seed: 42})
	var sampled int
	for i := 0; i < 200; i++ {
		ta, _ := a.StartRequest("q", "")
		tb, _ := b.StartRequest("q", "")
		if ta.ID() != tb.ID() {
			t.Fatalf("iteration %d: seeded tracers minted different IDs", i)
		}
		if ta.Sampled() != tb.Sampled() {
			t.Fatalf("iteration %d: same ID, different sampling decisions", i)
		}
		// Purity: a third tracer fed the same ID via traceparent-free
		// decision function agrees.
		if got := b.sampleDecision(ta.ID()); got != ta.Sampled() {
			t.Fatalf("iteration %d: decision not a pure function of the ID", i)
		}
		if ta.Sampled() {
			sampled++
		}
	}
	// At rate 0.5 over 200 draws the count is overwhelmingly in (50, 150).
	if sampled <= 50 || sampled >= 150 {
		t.Fatalf("rate 0.5 sampled %d of 200", sampled)
	}
	if tr, _ := New(Config{SampleRate: 1, Seed: 1}).StartRequest("q", ""); !tr.Sampled() {
		t.Fatal("rate 1 did not sample")
	}
	if tr, _ := New(Config{SampleRate: 0, Seed: 1}).StartRequest("q", ""); tr.Sampled() {
		t.Fatal("rate 0 sampled")
	}
}

// TestSpanTreeAndContext: spans nest through contexts, attributes and
// errors record, and the snapshot preserves parent links.
func TestSpanTreeAndContext(t *testing.T) {
	tracer := New(Config{SampleRate: 1, Seed: 11})
	tr, root := tracer.StartRequest("query", "")
	ctx := NewContext(context.Background(), tr, root.ID())

	ctx2, child := StartSpan(ctx, "compile")
	child.SetAttr(String("phase", "parse"), Int("tokens", 12))
	_, grand := StartSpan(ctx2, "order")
	grand.End()
	child.End()

	_, errSpan := StartSpan(ctx, "execute")
	errSpan.SetError(errors.New("boom"))
	errSpan.End()

	// The profile bridge path: explicit timing, parented explicitly.
	opID := tr.Add("op:Scan", errSpan.ID(), time.Now().Add(-time.Millisecond), time.Millisecond,
		Int("rows", 42))
	if opID.IsZero() {
		t.Fatal("Add returned a zero span ID")
	}

	root.End()
	tracer.Finish(tr, false)
	rec, ok := tracer.Get(tr.ID().String())
	if !ok {
		t.Fatal("trace not recorded")
	}
	if len(rec.Spans) != 5 {
		t.Fatalf("recorded %d spans, want 5", len(rec.Spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
	}
	if byName["compile"].Parent != rec.RootSpan {
		t.Fatal("compile span not parented under the root")
	}
	if byName["order"].Parent != byName["compile"].SpanID {
		t.Fatal("order span not parented under compile")
	}
	if byName["execute"].Error != "boom" {
		t.Fatal("execute span lost its error")
	}
	if byName["op:Scan"].Parent != byName["execute"].SpanID {
		t.Fatal("bridged span not parented under execute")
	}
	if byName["op:Scan"].Duration != time.Millisecond {
		t.Fatal("bridged span lost its explicit duration")
	}
	var gotAttr bool
	for _, a := range byName["compile"].Attrs {
		if a.Key == "tokens" && a.Value == "12" {
			gotAttr = true
		}
	}
	if !gotAttr {
		t.Fatalf("compile span attrs = %v", byName["compile"].Attrs)
	}

	// Untraced contexts pass through with nil-safe spans.
	ctx3, nilSpan := StartSpan(context.Background(), "x")
	if nilSpan != nil {
		t.Fatal("untraced context produced a span")
	}
	nilSpan.SetAttr(String("k", "v")) // must not panic
	nilSpan.SetError(errors.New("e"))
	nilSpan.End()
	if tr3, _ := FromContext(ctx3); tr3 != nil {
		t.Fatal("untraced context carries a trace")
	}
}

// TestTailCapture: an unsampled trace is kept when forced and marked as
// such — the slow/error path's tail capture.
func TestTailCapture(t *testing.T) {
	tracer := New(Config{SampleRate: 0, RingSize: 4, Seed: 5})
	tr, root := tracer.StartRequest("query", "")
	root.End()
	tracer.Finish(tr, true)
	rec, ok := tracer.Get(tr.ID().String())
	if !ok {
		t.Fatal("forced trace not recorded")
	}
	if !rec.Forced || rec.Sampled {
		t.Fatalf("forced trace flags: %+v", rec)
	}
	st := tracer.Stats()
	if st.Started != 1 || st.Kept != 1 || st.Forced != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}

	tr2, r2 := tracer.StartRequest("query", "")
	r2.End()
	tracer.Finish(tr2, false)
	if st := tracer.Stats(); st.Dropped != 1 {
		t.Fatalf("unforced unsampled trace not dropped: %+v", st)
	}
}

// TestRingBounds: the ring holds at most its capacity, newest first, and
// Get finds entries by ID.
func TestRingBounds(t *testing.T) {
	tracer := New(Config{SampleRate: 1, RingSize: 3, Seed: 9})
	var ids []string
	for i := 0; i < 5; i++ {
		tr, root := tracer.StartRequest(fmt.Sprintf("q%d", i), "")
		root.End()
		tracer.Finish(tr, false)
		ids = append(ids, tr.ID().String())
	}
	got := tracer.Traces()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for i, rec := range got {
		if want := fmt.Sprintf("q%d", 4-i); rec.Root != want {
			t.Fatalf("entry %d is %q, want %q (newest first)", i, rec.Root, want)
		}
	}
	if _, ok := tracer.Get(ids[0]); ok {
		t.Fatal("evicted trace still found")
	}
	if _, ok := tracer.Get(ids[4]); !ok {
		t.Fatal("newest trace not found")
	}
}

// TestOTLPExport: the OTLP-shaped document carries the service resource,
// every span with its IDs and timing, the SERVER kind on the root, and
// ERROR status on failed spans.
func TestOTLPExport(t *testing.T) {
	tracer := New(Config{SampleRate: 1, Seed: 13, Service: "blackswan-test"})
	tr, root := tracer.StartRequest("query", "")
	ctx := NewContext(context.Background(), tr, root.ID())
	_, sp := StartSpan(ctx, "execute")
	sp.SetAttr(String("system", "colstore vert"))
	sp.SetError(errors.New("exec failed"))
	sp.End()
	root.End()
	tracer.Finish(tr, false)
	rec, _ := tracer.Get(tr.ID().String())

	doc := OTLP(rec, tracer.Service())
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	for _, want := range []string{
		`"service.name"`, `"blackswan-test"`,
		`"traceId":"` + rec.TraceID + `"`,
		`"name":"query"`, `"name":"execute"`,
		`"stringValue":"colstore vert"`,
		`"message":"exec failed"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("OTLP export missing %s in:\n%s", want, s)
		}
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatal("unexpected OTLP nesting")
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(spans))
	}
	for _, o := range spans {
		if o.SpanID == rec.RootSpan {
			if o.Kind != 2 {
				t.Errorf("root span kind = %d, want 2 (SERVER)", o.Kind)
			}
		} else if o.Kind != 1 {
			t.Errorf("child span kind = %d, want 1 (INTERNAL)", o.Kind)
		}
		if o.StartNanos == "" || o.EndNanos == "" {
			t.Errorf("span %s lacks timing", o.Name)
		}
		if o.Name == "execute" && o.Status.Code != 2 {
			t.Errorf("errored span status = %d, want 2", o.Status.Code)
		}
	}
}

// TestConcurrentHammer drives tracer, ring and exporter from many
// goroutines at once — the -race target for the whole package.
func TestConcurrentHammer(t *testing.T) {
	tracer := New(Config{SampleRate: 0.5, RingSize: 16, Seed: 21})
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr, root := tracer.StartRequest("query", "")
				ctx := NewContext(context.Background(), tr, root.ID())
				ctx2, sp := StartSpan(ctx, "execute")
				// Spans may end on other goroutines (the executor fan-out).
				done := make(chan struct{})
				go func() {
					_, inner := StartSpan(ctx2, "scan")
					inner.SetAttr(Int("rows", int64(i)))
					inner.End()
					close(done)
				}()
				<-done
				sp.End()
				root.End()
				tracer.Finish(tr, i%7 == 0)
				// Concurrent readers of the ring and exporter.
				for _, rec := range tracer.Traces() {
					_ = OTLP(rec, "x")
				}
				tracer.Get(tr.ID().String())
				tracer.Stats()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tracer.Traces()); got != 16 {
		t.Fatalf("ring holds %d, want capacity 16", got)
	}
	st := tracer.Stats()
	if st.Started != workers*perWorker {
		t.Fatalf("started = %d, want %d", st.Started, workers*perWorker)
	}
	if st.Kept+st.Dropped != st.Started {
		t.Fatalf("kept %d + dropped %d != started %d", st.Kept, st.Dropped, st.Started)
	}
}
