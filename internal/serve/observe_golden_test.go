package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
	"blackswan/internal/trace"
)

// hostFigure matches the host-clock figures of an EXPLAIN ANALYZE line,
// the only ones that vary between runs.
var hostFigure = regexp.MustCompile(`host=[^ )]+`)

// TestObservePayloadsGolden pins every per-operator view the service hands
// out — EXPLAIN ANALYZE, the JSON profile of the slow ring and /query, the
// workload registry's per-operator aggregates and the bridged op: spans —
// byte for byte, with the host clock masked. It runs on a private store,
// so the simulated figures are deterministic. The cases cover a shared
// subexpression (q6), an index-probe join whose access is the left input
// (its frame is entered after the outer), a partitioned join with a fused
// access on a vertical scheme, a range filter and an OPTIONAL. Each case
// runs twice on a fresh service, so the registry folds two executions.
func TestObservePayloadsGolden(t *testing.T) {
	w, err := bench.NewWorkload(datagen.Config{Triples: 20000, Properties: 24, Interesting: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bench.BGPSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	dict := w.DS.Graph.Dict
	term := func(id rdf.ID) string { return dict.Term(id).String() }
	q6, err := bgp.PaperText(core.Query{ID: core.Q6}, dict, w.Cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	iri := func(s string) string { return "<" + s + ">" }
	// The subject of the first records triple: one record, so the probe's
	// outer stays under the type access's license.
	var recorder string
	for _, tr := range w.DS.Graph.Triples {
		if tr.P == dict.LookupIRI(datagen.RecordsIRI) {
			recorder = term(tr.S)
			break
		}
	}
	cases := []struct{ name, system, text string }{
		{"q6 shared subexpression", "DBX triple PSO", q6},
		{"q6 shared subexpression", "MonetDB vert SO", q6},
		{"probe with the access on the left", "DBX vert SO",
			`SELECT * WHERE { ?s ` + iri(datagen.TypeIRI) + ` ?t . ` + recorder + ` ` + iri(datagen.RecordsIRI) + ` ?s }`},
		{"partitioned join with a fused access", "MonetDB vert SO",
			`SELECT ?p (COUNT AS ?n) WHERE { ?s ` + iri(datagen.TypeIRI) + ` ` + iri(datagen.TextIRI) + ` . ?s ?p ?o } GROUP BY ?p`},
		{"range filter", "DBX triple PSO",
			`SELECT * WHERE { ?s ` + iri(datagen.TypeIRI) + ` ?t . ?s ` + iri(datagen.PointInTimeIRI) + ` ?y .
			   FILTER (?y >= 1900) . FILTER (?y < 1990) }`},
		{"optional", "MonetDB triple PSO",
			`SELECT * WHERE { ?s ` + iri(datagen.OriginIRI) + ` ` + iri(datagen.DLCIRI) + ` .
			   OPTIONAL { ?s ` + iri(datagen.RecordsIRI) + ` ?r } }`},
	}
	var b strings.Builder
	for _, tc := range cases {
		tracer := trace.New(trace.Config{SampleRate: 1, Seed: 1})
		svc, err := bench.NewService(w, sys, serve.Config{
			Tracer: tracer, SlowLogSize: 4, SlowQueryThreshold: time.Nanosecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var res *serve.Result
		for range 2 {
			ctx, _, finish := svc.TraceStart(context.Background(), "query", "")
			res, err = svc.ExecTextOpts(ctx, tc.text, tc.system, serve.ExecOpts{Profile: true})
			finish(err)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		fmt.Fprintf(&b, "=== %s on %s\n--- analyze\n", tc.name, tc.system)
		b.WriteString(hostFigure.ReplaceAllString(core.FormatAnalyze(res.Profile, term), "host=*"))

		b.WriteString("--- profile\n")
		prof := svc.SlowQueries()[0].Profile
		var zero func(n *serve.ProfileNode)
		zero = func(n *serve.ProfileNode) {
			n.HostNs, n.SelfHostNs = 0, 0
			for _, c := range n.Children {
				zero(c)
			}
		}
		zero(prof)
		js, err := json.MarshalIndent(prof, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		b.Write(js)

		b.WriteString("\n--- workload ops\n")
		ws := svc.Workload(serve.WorkloadQuery{Limit: -1})
		if len(ws.Entries) != 1 {
			t.Fatalf("%s: registry holds %d entries, want 1", tc.name, len(ws.Entries))
		}
		js, err = json.MarshalIndent(ws.Entries[0].Ops, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		b.Write(js)

		b.WriteString("\n--- spans\n")
		rec, ok := tracer.Get(res.TraceID)
		if !ok {
			t.Fatalf("%s: trace missing from the ring", tc.name)
		}
		depth := map[string]int{}
		for _, sp := range rec.Spans {
			if !strings.HasPrefix(sp.Name, "op:") {
				continue
			}
			d := depth[sp.Parent]
			depth[sp.SpanID] = d + 1
			fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", d), sp.Name)
			for _, a := range sp.Attrs {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
			}
			b.WriteByte('\n')
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "observe.golden")
	if *serve.UpdateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("observation payloads differ from %s (run with -update after intentional changes)\ngot:\n%s", golden, got)
	}
}
