package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/serve"
)

// TestProfileCarriesPlanEstimates checks that EXPLAIN ANALYZE reports the
// estimates the plan was compiled with: on every scheme, each profiled
// node's EstRows is the compiled plan's figure for that node, the range
// filters' per-property estimates included.
func TestProfileCarriesPlanEstimates(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{})
	ctx := context.Background()
	text := `SELECT * WHERE { ?s <` + datagen.TypeIRI + `> ?t . ?s <` + datagen.PointInTimeIRI + `> ?y .
	   FILTER (?y >= 1900) . FILTER (?y < 1990) . OPTIONAL { ?s <` + datagen.RecordsIRI + `> ?r } }`
	p, err := svc.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sys {
		res, err := svc.ExecTextOpts(ctx, text, s.Name, serve.ExecOpts{Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		var ranges, leftJoins int
		res.Profile.Walk(func(op *core.OpProfile) {
			switch op.Node.(type) {
			case *core.FilterRange:
				ranges++
			case *core.LeftJoin:
				leftJoins++
			}
			want := p.Compiled.Nodes()[op.ID]
			if want.Node != op.Node || op.EstRows != want.EstRows {
				t.Errorf("%s: %s estimated %v rows in the profile, node %d (%s) %v in the plan",
					s.Name, core.NodeLabel(op.Node, nil), op.EstRows, op.ID, core.NodeLabel(want.Node, nil), want.EstRows)
			}
		})
		if ranges != 2 || leftJoins != 1 {
			t.Fatalf("%s: profile holds %d range filters and %d left joins, want 2 and 1", s.Name, ranges, leftJoins)
		}
	}
}

// TestProfileByteIdentity is the profiler's acceptance check: on every
// scheme, a profiled execution returns byte-identical rows to an
// unprofiled one and carries a per-operator tree with the planner's
// estimates annotated.
func TestProfileByteIdentity(t *testing.T) {
	_, sys, _ := fixture(t)
	texts := queryTexts(t, 4)
	ctx := context.Background()
	svc := newService(t, serve.Config{})
	for _, s := range sys {
		for _, text := range texts {
			plain, err := svc.ExecText(ctx, text, s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Profile != nil {
				t.Fatalf("%s: unprofiled execution carries a profile", s.Name)
			}
			prof, err := svc.ExecTextOpts(ctx, text, s.Name, serve.ExecOpts{Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			if prof.Rows.W != plain.Rows.W || len(prof.Rows.Data) != len(plain.Rows.Data) {
				t.Fatalf("%s: profiled result shape differs", s.Name)
			}
			for i := range plain.Rows.Data {
				if prof.Rows.Data[i] != plain.Rows.Data[i] {
					t.Fatalf("%s: profiled result not byte-identical", s.Name)
				}
			}
			p := prof.Profile
			if p == nil {
				t.Fatalf("%s: profiled execution returned no profile", s.Name)
			}
			if p.Rows != prof.Rows.Len() {
				t.Fatalf("%s: root profile rows=%d, result rows=%d", s.Name, p.Rows, prof.Rows.Len())
			}
			var nodes, estimated int
			p.Walk(func(op *core.OpProfile) {
				nodes++
				if op.EstRows >= 0 {
					estimated++
				}
				if op.Rows < 0 || op.Host < 0 || op.CPU < 0 || op.IO < 0 {
					t.Errorf("%s: negative actuals in profile node: %+v", s.Name, op)
				}
			})
			if nodes < 1 {
				t.Fatalf("%s: empty profile tree", s.Name)
			}
			if estimated == 0 {
				t.Fatalf("%s: no node carries a cardinality estimate", s.Name)
			}
			// The renderer must produce the est= annotations.
			analyze := core.FormatAnalyze(p, nil)
			if !strings.Contains(analyze, "rows=") || !strings.Contains(analyze, "est=") {
				t.Fatalf("%s: EXPLAIN ANALYZE rendering lacks actuals or estimates:\n%s", s.Name, analyze)
			}
		}
	}
	st := svc.Stats()
	if want := int64(len(sys) * len(texts)); st.Profiled != want {
		t.Fatalf("profiled counter = %d, want %d", st.Profiled, want)
	}
}

// TestErrorClassCounters checks that failures land in the right per-class
// counter and that ErrorClass classifies the context sentinels.
func TestErrorClassCounters(t *testing.T) {
	svc := newService(t, serve.Config{})
	ctx := context.Background()

	if _, err := svc.ExecText(ctx, "SELECT ?x WHERE {", svc.Systems()[0]); err == nil {
		t.Fatal("malformed query served successfully")
	}
	if _, err := svc.ExecText(ctx, queryTexts(t, 1)[0], "no-such-system"); err == nil {
		t.Fatal("unknown system served successfully")
	}
	st := svc.Stats()
	if st.ErrorsBy[serve.ErrClassParse] != 1 {
		t.Errorf("parse errors = %d, want 1 (all: %v)", st.ErrorsBy[serve.ErrClassParse], st.ErrorsBy)
	}
	if st.ErrorsBy[serve.ErrClassUnknownSystem] != 1 {
		t.Errorf("unknown-system errors = %d, want 1 (all: %v)", st.ErrorsBy[serve.ErrClassUnknownSystem], st.ErrorsBy)
	}
	if st.Errors != 2 {
		t.Errorf("error total = %d, want 2", st.Errors)
	}

	for _, tc := range []struct {
		err  error
		want string
	}{
		{context.Canceled, serve.ErrClassCanceled},
		{context.DeadlineExceeded, serve.ErrClassCanceled},
		{errorString("engine exploded"), serve.ErrClassExec},
	} {
		if got := serve.ErrorClass(tc.err); got != tc.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

type errorString string

func (e errorString) Error() string { return string(e) }

// TestSlowLogService drives the slow log through the service: with a zero
// threshold the log is off; with a tiny threshold every served query is
// recorded — newest first, with its plan and (when profiled) its profile.
func TestSlowLogService(t *testing.T) {
	var logBuf bytes.Buffer
	off := newService(t, serve.Config{
		Logger: slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	texts := queryTexts(t, 3)
	ctx := context.Background()
	if _, err := off.ExecText(ctx, texts[0], off.Systems()[0]); err != nil {
		t.Fatal(err)
	}
	if got := off.SlowQueries(); got != nil {
		t.Fatalf("disabled slow log returned %d entries", len(got))
	}
	if got, _ := logRecord(t, &logBuf, "query served")["version"].(float64); uint64(got) != off.Version() {
		t.Fatalf("served line version = %v, want %d", got, off.Version())
	}

	svc := newService(t, serve.Config{SlowQueryThreshold: time.Nanosecond, SlowLogSize: 2})
	system := svc.Systems()[0]
	for i, text := range texts {
		opt := serve.ExecOpts{Profile: i == len(texts)-1}
		if _, err := svc.ExecTextOpts(ctx, text, system, opt); err != nil {
			t.Fatal(err)
		}
	}
	entries := svc.SlowQueries()
	if len(entries) != 2 {
		t.Fatalf("slow log holds %d entries, want the ring capacity 2", len(entries))
	}
	// Newest first: the last executed text leads, and it was profiled.
	if entries[0].System != system || entries[0].Latency <= 0 {
		t.Fatalf("bad leading entry: %+v", entries[0])
	}
	if entries[0].Plan == "" {
		t.Fatal("slow entry lacks its plan text")
	}
	if entries[0].Version != svc.Version() {
		t.Fatalf("slow entry version %d, want %d", entries[0].Version, svc.Version())
	}
	if entries[0].Profile == nil {
		t.Fatal("profiled slow query lost its profile")
	}
	if entries[0].Profile.Op == "" {
		t.Fatal("slow-entry profile node lacks its operator label")
	}
	if entries[1].Profile != nil {
		t.Fatal("unprofiled slow query gained a profile")
	}
	if st := svc.Stats(); st.SlowQueries != int64(len(texts)) {
		t.Fatalf("slow counter = %d, want %d", st.SlowQueries, len(texts))
	}
}

// TestHTTPObservability exercises the HTTP front-end end to end: a profiled
// JSON-body query, error classes on the wire, the Prometheus scrape, and
// the slow-log endpoint.
func TestHTTPObservability(t *testing.T) {
	svc := newService(t, serve.Config{SlowQueryThreshold: time.Nanosecond})
	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()
	text := queryTexts(t, 1)[0]

	// A profiled query via JSON body.
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled query status %d", resp.StatusCode)
	}
	if qr.Profile == nil {
		t.Fatal("response lacks the profile tree")
	}
	if qr.Profile.Op == "" {
		t.Fatal("profile root lacks its operator label")
	}
	if qr.Profile.Rows != qr.RowCount {
		t.Fatalf("profile root rows=%d, rowCount=%d", qr.Profile.Rows, qr.RowCount)
	}

	// The same query unprofiled: byte-identical rows, no profile attached.
	plain, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"q":`+string(mustJSON(text))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	var pr serve.QueryResponse
	if err := json.NewDecoder(plain.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	plain.Body.Close()
	if pr.Profile != nil {
		t.Fatal("unprofiled response carries a profile")
	}
	if pr.RowCount != qr.RowCount || len(pr.Rows) != len(qr.Rows) {
		t.Fatalf("profiled response differs: %d/%d rows vs %d/%d",
			qr.RowCount, len(qr.Rows), pr.RowCount, len(pr.Rows))
	}

	// Error classes on the wire.
	for _, tc := range []struct {
		url    string
		status int
		class  string
	}{
		{srv.URL + "/query?q=SELECT+%3Fx+WHERE+%7B", http.StatusBadRequest, serve.ErrClassParse},
		{srv.URL + "/query?q=" + "SELECT+%3Fs+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D" + "&system=nope", http.StatusNotFound, serve.ErrClassUnknownSystem},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		var er serve.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.status)
		}
		if er.Class != tc.class {
			t.Errorf("%s: errorClass %q, want %q", tc.url, er.Class, tc.class)
		}
	}

	// The Prometheus scrape reflects the traffic above.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	scrape := string(raw)
	for _, line := range []string{
		"blackswan_queries_total 2",
		"blackswan_profiled_executions_total 1",
		`blackswan_errors_total{class="parse"} 1`,
		`blackswan_errors_total{class="unknown_system"} 1`,
		"blackswan_slow_queries_total 2",
	} {
		if !strings.Contains(scrape, line+"\n") {
			t.Errorf("scrape is missing %q", line)
		}
	}

	// The slow log over HTTP: both served queries, newest first.
	sresp, err := http.Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var entries []serve.SlowEntry
	if err := json.NewDecoder(sresp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if len(entries) != 2 {
		t.Fatalf("/debug/slow returned %d entries, want 2", len(entries))
	}
	if entries[0].Profile != nil {
		t.Fatal("the second (unprofiled) query leads but carries a profile")
	}
	if entries[1].Profile == nil {
		t.Fatal("the first (profiled) query lost its profile in the log")
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
