package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"blackswan/internal/bench"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
)

// Serve-layer coverage of the SPARQL-ward constructs: cache hits on
// canonicalized ORDER BY/LIMIT variants, NULL (unbound) column encoding
// through JSON, request cancellation inside a TopN plan, and parse-error
// positions for mistakes inside OPTIONAL/FILTER sub-clauses — all through
// the same service and HTTP front-end ordinary queries use.

// optionalQuery returns a query with guaranteed NULL rows on the fixture
// data: every subject has a <type>, only a minority has the numeric
// <pointInTime>, and NULLs sort first under ascending ORDER BY.
func optionalQuery() string {
	return `SELECT * WHERE { ?s <` + datagen.TypeIRI + `> ?t . OPTIONAL { ?s <` +
		datagen.PointInTimeIRI + `> ?y } } ORDER BY ?y ?s LIMIT 8`
}

// TestCacheHitOnCanonicalizedOrderBy asserts layout variants of one ORDER
// BY/LIMIT query share a single cache entry: the second spelling is a hit
// and compiles nothing.
func TestCacheHitOnCanonicalizedOrderBy(t *testing.T) {
	_, sys, _ := fixture(t)
	svc := newService(t, serve.Config{})
	ctx := context.Background()
	a := optionalQuery()
	b := strings.ReplaceAll(a, " ", "\n ") // same tokens, different layout
	if a == b {
		t.Fatal("layout variant is identical")
	}

	missesBefore := svc.Stats().Cache.Misses
	first, err := svc.ExecText(ctx, a, sys[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.ExecText(ctx, b, sys[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("layout variant of an ORDER BY/LIMIT query missed the cache")
	}
	if got := svc.Stats().Cache.Misses - missesBefore; got != 1 {
		t.Fatalf("two layouts compiled %d times, want 1", got)
	}
	// And the cached plan is the same plan: identical ordered rows.
	if len(first.Rows.Data) != len(second.Rows.Data) {
		t.Fatal("cached variant returned a different result")
	}
	for i := range first.Rows.Data {
		if first.Rows.Data[i] != second.Rows.Data[i] {
			t.Fatal("cached variant returned different rows")
		}
	}
}

// TestNullColumnEncoding asserts unbound OPTIONAL variables decode as NULL
// end to end: nil cells from DecodeRowsNull, empty strings from
// DecodeRows, and JSON null over HTTP — never a dictionary panic or a
// fake term.
func TestNullColumnEncoding(t *testing.T) {
	_, sys, _ := fixture(t)
	svc, srv := httpFixture(t)
	ctx := context.Background()
	text := optionalQuery()

	res, err := svc.ExecText(ctx, text, sys[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	yCol := -1
	for i, c := range res.Cols {
		if c == "y" {
			yCol = i
		}
	}
	if yCol < 0 {
		t.Fatalf("no ?y column in %v", res.Cols)
	}
	nulls := 0
	for i := 0; i < res.Rows.Len(); i++ {
		if rdf.ID(res.Rows.Row(i)[yCol]) == rdf.NoID {
			nulls++
		}
	}
	if nulls == 0 {
		t.Fatal("fixture query produced no NULL rows — the encoding path is untested")
	}

	decoded := svc.DecodeRowsNull(res, -1)
	plain := svc.DecodeRows(res, -1)
	for i := range decoded {
		isNull := rdf.ID(res.Rows.Row(i)[yCol]) == rdf.NoID
		if isNull != (decoded[i][yCol] == nil) {
			t.Fatalf("row %d: NULL mismatch in DecodeRowsNull", i)
		}
		if isNull && plain[i][yCol] != "" {
			t.Fatalf("row %d: DecodeRows rendered NULL as %q", i, plain[i][yCol])
		}
		if !isNull && (decoded[i][yCol] == nil || *decoded[i][yCol] == "") {
			t.Fatalf("row %d: bound value decoded empty", i)
		}
	}

	// Over HTTP the NULL must arrive as JSON null (a nil *string).
	var qr serve.QueryResponse
	u := srv.URL + "/query?q=" + url.QueryEscape(text) + "&system=" + url.QueryEscape(sys[0].Name) + "&limit=-1"
	getJSON(t, u, http.StatusOK, &qr)
	if len(qr.Rows) != res.Rows.Len() {
		t.Fatalf("HTTP returned %d rows, want %d", len(qr.Rows), res.Rows.Len())
	}
	httpNulls := 0
	for _, row := range qr.Rows {
		if row[yCol] == nil {
			httpNulls++
		}
	}
	if httpNulls != nulls {
		t.Fatalf("HTTP carried %d null cells, want %d", httpNulls, nulls)
	}
}

// topNGate holds executions inside the scan feeding a TopN so the test can
// cancel a request while its ORDER BY plan is in flight.
type topNGate struct {
	core.PhysicalSource
	started chan struct{}
	once    sync.Once
	gate    chan struct{}
}

func (g *topNGate) StreamProp(p, s, o rdf.ID, need core.ScanCols, batchRows int) (core.RelIter, error) {
	g.once.Do(func() { close(g.started) })
	<-g.gate
	return g.PhysicalSource.StreamProp(p, s, o, need, batchRows)
}

// TestCtxCancellationInsideTopN cancels a request whose plan ends in TopN
// while it is executing, and asserts the executor aborts with the context
// error before the sort runs — then proves the same text still serves
// normally once the gate opens.
func TestCtxCancellationInsideTopN(t *testing.T) {
	w, sys, est := fixture(t)
	var vert *bench.System
	for _, s := range sys {
		if strings.Contains(s.Name, "vert") {
			vert = s
			break
		}
	}
	if vert == nil {
		t.Fatal("fixture lacks a vertical system")
	}
	gated := &topNGate{
		PhysicalSource: vert.DB.(core.PhysicalSource),
		started:        make(chan struct{}),
		gate:           make(chan struct{}),
	}
	svc, err := serve.New(w.DS.Graph.Dict, est, serve.Config{MaxConcurrent: 1},
		serve.Target{Name: "gated", Src: gated})
	if err != nil {
		t.Fatal(err)
	}
	text := `SELECT * WHERE { ?s ?p ?o } ORDER BY ?s DESC ?o LIMIT 5`

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.ExecText(ctx, text, "gated")
		done <- err
	}()
	<-gated.started
	cancel()
	close(gated.gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TopN query returned %v, want context.Canceled", err)
	}

	// The service is intact: the same (cached) plan now runs to completion
	// and returns the ordered prefix.
	res, err := svc.ExecText(context.Background(), text, "gated")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second execution should hit the plan cache (the cancel was post-compile)")
	}
	if res.Rows.Len() > 5 {
		t.Fatalf("LIMIT 5 returned %d rows", res.Rows.Len())
	}
}

// TestHTTPErrorPositionsInSubClauses asserts parse errors inside OPTIONAL
// and FILTER sub-clauses point at the offending token — through the HTTP
// 400 path, so clients see the exact position in the text they sent.
func TestHTTPErrorPositionsInSubClauses(t *testing.T) {
	_, srv := httpFixture(t)

	check := func(query, errSub string, wantOff int) {
		t.Helper()
		var er serve.ErrorResponse
		getJSON(t, srv.URL+"/query?q="+url.QueryEscape(query), http.StatusBadRequest, &er)
		if !strings.Contains(er.Error, errSub) {
			t.Fatalf("query %q: error %q lacks %q", query, er.Error, errSub)
		}
		if er.Offset == nil || *er.Offset != wantOff {
			got := -1
			if er.Offset != nil {
				got = *er.Offset
			}
			t.Fatalf("query %q: offset %d, want %d (line %d col %d)", query, got, wantOff, er.Line, er.Col)
		}
		// Line/col must agree with the offset.
		wantLine, wantCol := 1, 1
		for _, c := range []byte(query[:wantOff]) {
			if c == '\n' {
				wantLine++
				wantCol = 1
			} else {
				wantCol++
			}
		}
		if er.Line != wantLine || er.Col != wantCol {
			t.Fatalf("query %q: position %d:%d, want %d:%d", query, er.Line, er.Col, wantLine, wantCol)
		}
	}

	// Truncated triple inside OPTIONAL: the error is at the closing brace
	// where a term was expected, not at the OPTIONAL keyword.
	q1 := "SELECT * WHERE {\n  ?s ?p ?o .\n  OPTIONAL { ?s ?q }\n}"
	check(q1, "expected term", strings.Index(q1, "}"))

	// Non-numeric bound in a range FILTER: the error is at the bound.
	q2 := `SELECT * WHERE { ?s ?p ?o . FILTER (?o < <barton/type>) }`
	check(q2, "numeric bound", strings.Index(q2, "<barton/type>"))

	// UNION nested in OPTIONAL: the error is at the inner brace.
	q3 := `SELECT * WHERE { ?s ?p ?o . OPTIONAL { { ?s ?p ?a } UNION { ?s ?p ?b } } }`
	check(q3, "UNION cannot appear inside OPTIONAL", strings.Index(q3, "{ { ?s")+2)

	// Nested OPTIONAL: the error is at the inner OPTIONAL keyword.
	q4 := `SELECT * WHERE { ?s ?p ?o . OPTIONAL { ?s ?p ?a . OPTIONAL { ?a ?q ?b } } }`
	check(q4, "OPTIONAL cannot nest", strings.LastIndex(q4, "OPTIONAL"))

	// LIMIT without ORDER BY: the error is at the LIMIT keyword.
	q5 := "SELECT * WHERE { ?s ?p ?o }\nLIMIT 5"
	check(q5, "LIMIT requires ORDER BY", strings.Index(q5, "LIMIT"))

	// Bad LIMIT count: the error is at the count.
	q6 := `SELECT * WHERE { ?s ?p ?o } ORDER BY ?s LIMIT -3`
	check(q6, "LIMIT count", strings.Index(q6, "-3"))
}
