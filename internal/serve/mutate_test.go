package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"blackswan/internal/bench"
	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
)

// mutableService builds a fresh service + mutator over its own systems
// (not the shared fixture targets: mutation tests install overlays and
// rebuilds, and must not race other tests' executions on shared stores).
func mutableService(t *testing.T, cfg serve.Config, compactEvery int) (*serve.Service, *serve.Mutator, *bench.Workload) {
	t.Helper()
	w, _, _ := fixture(t)
	sys, err := bench.BGPSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := bench.NewService(w, sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bench.NewMutator(svc, w, sys, compactEvery)
	if err != nil {
		t.Fatal(err)
	}
	return svc, m, w
}

// TestApplyUpdateRoundTrip: INSERT surfaces on every scheme at the new
// version, DELETE removes it again, and each commit is exactly one version
// bump with the correct base.
func TestApplyUpdateRoundTrip(t *testing.T) {
	svc, m, _ := mutableService(t, serve.Config{}, 0)
	ctx := context.Background()
	if v := svc.Version(); v != 1 {
		t.Fatalf("initial version %d, want 1", v)
	}

	up, err := m.ApplyUpdate(ctx, `INSERT DATA {
		<mutate/s1> <mutate/p> <mutate/o1> .
		<mutate/s2> <mutate/p> "two"
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if up.Version != 2 || up.BaseVersion != 1 || up.Inserted != 2 || up.Deleted != 0 {
		t.Fatalf("insert result %+v", up)
	}

	const q = `SELECT ?s ?o WHERE { ?s <mutate/p> ?o }`
	for _, sys := range svc.Systems() {
		res, err := svc.ExecText(ctx, q, sys)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Rows.Len() != 2 {
			t.Fatalf("%s: %d rows after insert, want 2", sys, res.Rows.Len())
		}
		if res.Version != up.Version {
			t.Fatalf("%s: result version %d, commit installed %d", sys, res.Version, up.Version)
		}
	}

	// Set semantics: re-inserting a present triple changes nothing but
	// still commits (an empty write is a version bump).
	re, err := m.ApplyUpdate(ctx, `INSERT DATA { <mutate/s1> <mutate/p> <mutate/o1> }`)
	if err != nil {
		t.Fatal(err)
	}
	if re.Inserted != 0 || re.Version != 3 || re.BaseVersion != 2 {
		t.Fatalf("re-insert result %+v", re)
	}

	del, err := m.ApplyUpdate(ctx, `DELETE DATA { <mutate/s2> <mutate/p> "two" }`)
	if err != nil {
		t.Fatal(err)
	}
	if del.Deleted != 1 || del.Version != 4 {
		t.Fatalf("delete result %+v", del)
	}
	for _, sys := range svc.Systems() {
		res, err := svc.ExecText(ctx, q, sys)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Rows.Len() != 1 {
			t.Fatalf("%s: %d rows after delete, want 1", sys, res.Rows.Len())
		}
	}

	// Mixed request: one transaction, one version.
	mix, err := m.ApplyUpdate(ctx, `DELETE DATA { <mutate/s1> <mutate/p> <mutate/o1> } ;
		INSERT DATA { <mutate/s3> <mutate/p> <mutate/o3> }`)
	if err != nil {
		t.Fatal(err)
	}
	if mix.Version != 5 || mix.Inserted != 1 || mix.Deleted != 1 {
		t.Fatalf("mixed result %+v", mix)
	}
	if got := svc.Stats(); got.Commits != 4 || got.DatasetVersion != 5 {
		t.Fatalf("stats commits=%d version=%d, want 4/5", got.Commits, got.DatasetVersion)
	}
}

// TestApplyUpdateRejected: a commit that would delete every triple of an
// interesting property must be rejected whole — no version bump, no
// visible change, and the pending delta untouched.
func TestApplyUpdateRejected(t *testing.T) {
	svc, m, w := mutableService(t, serve.Config{}, 0)
	ctx := context.Background()

	victim := w.Cat.Interesting[0]
	dict := w.DS.Graph.Dict
	var b strings.Builder
	b.WriteString("DELETE DATA {\n")
	n := 0
	for _, tr := range w.DS.Graph.Triples {
		if tr.P == victim {
			fmt.Fprintf(&b, "%s %s %s .\n",
				dict.Term(tr.S).String(), dict.Term(tr.P).String(), dict.Term(tr.O).String())
			n++
		}
	}
	b.WriteString("}")
	if n == 0 {
		t.Fatal("fixture has no triples of the interesting property")
	}

	before := svc.Version()
	if _, err := m.ApplyUpdate(ctx, b.String()); err == nil {
		t.Fatal("deleting an entire interesting property was accepted")
	} else if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("unexpected rejection error: %v", err)
	}
	if v := svc.Version(); v != before {
		t.Fatalf("rejected commit bumped the version: %d -> %d", before, v)
	}
	if adds, dels := m.Delta(); adds != 0 || dels != 0 {
		t.Fatalf("rejected commit left delta state: %d adds, %d dels", adds, dels)
	}
	// The property still answers on every scheme.
	q := fmt.Sprintf("SELECT ?s ?o WHERE { ?s %s ?o }", dict.Term(victim).String())
	for _, sys := range svc.Systems() {
		res, err := svc.ExecText(ctx, q, sys)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Rows.Len() != n {
			t.Fatalf("%s: %d rows, want %d", sys, res.Rows.Len(), n)
		}
	}
}

// TestRejectedUpdateLeavesDictionary: an update is validated before its
// new terms are interned, so one rejected whole — new terms inserted beside
// the deletion of every triple of an interesting property — leaves the
// dictionary, the version and /debug/versions as they were. The insertion
// alone then commits and interns exactly its three new terms.
func TestRejectedUpdateLeavesDictionary(t *testing.T) {
	svc, m, w := mutableService(t, serve.Config{}, 0)
	ctx := context.Background()
	h := serve.NewHandler(svc)
	versions := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/versions", nil))
		return rec.Body.String()
	}
	dict := w.DS.Graph.Dict
	const insert = `INSERT DATA { <reject/s> <reject/p> "reject" }`
	var b strings.Builder
	b.WriteString(insert + " ;\nDELETE DATA {\n")
	for _, tr := range w.DS.Graph.Triples {
		if tr.P == w.Cat.Interesting[0] {
			fmt.Fprintf(&b, "%s %s %s .\n", dict.Term(tr.S).String(), dict.Term(tr.P).String(), dict.Term(tr.O).String())
		}
	}
	b.WriteString("}")

	terms, version, listed := dict.Len(), svc.Version(), versions()
	if _, err := m.ApplyUpdate(ctx, b.String()); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("mixed update deleting an interesting property: err %v, want a rejection", err)
	}
	if dict.Len() != terms || svc.Version() != version || versions() != listed {
		t.Fatalf("rejected update changed state: %d terms (was %d), version %d (was %d), versions %s (was %s)",
			dict.Len(), terms, svc.Version(), version, versions(), listed)
	}
	if _, err := m.ApplyUpdate(ctx, insert); err != nil {
		t.Fatal(err)
	}
	if dict.Len() != terms+3 {
		t.Fatalf("committed insert left %d terms, want %d", dict.Len(), terms+3)
	}
}

// racingDict interns a term of its own ahead of the first Intern it is
// asked for, as a writer outside the mutator would.
type racingDict struct {
	rdf.Dict
	raced bool
}

func (d *racingDict) Intern(t rdf.Term) rdf.ID {
	if !d.raced {
		d.raced = true
		d.Dict.Intern(rdf.NewIRI("race/intruder"))
	}
	return d.Dict.Intern(t)
}

// TestOutsideInternFailsCommit: an update's new terms are lent the
// identifiers interning will give them; when the dictionary grows between
// lending and interning — a writer outside the mutator — the commit fails
// with nothing installed rather than serve triples of the wrong terms.
func TestOutsideInternFailsCommit(t *testing.T) {
	w, _, _ := fixture(t)
	sys, err := bench.BGPSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := bench.NewService(w, sys, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	targets, err := bench.ServeTargets(sys)
	if err != nil {
		t.Fatal(err)
	}
	g := &rdf.Graph{Dict: &racingDict{Dict: w.DS.Graph.Dict}, Triples: w.DS.Graph.Triples}
	m, err := serve.NewMutator(svc, serve.MutatorConfig{Graph: g, Cat: w.Cat, Est: w.Estimator(), Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	version := svc.Version()
	if _, err := m.ApplyUpdate(ctx, `INSERT DATA { <race/s> <race/p> "race" }`); err == nil || !strings.Contains(err.Error(), "outside the write path") {
		t.Fatalf("commit racing an outside intern: err %v", err)
	}
	if svc.Version() != version {
		t.Fatalf("failed commit installed version %d", svc.Version())
	}
	if adds, dels := m.Delta(); adds != 0 || dels != 0 {
		t.Fatalf("failed commit left delta state: %d adds, %d dels", adds, dels)
	}
}

// TestCompactionRebuild: when the delta reaches CompactEvery the commit
// folds it into rebuilt tables — results unchanged, delta reset, estimator
// recomputed — and later commits overlay the new base.
func TestCompactionRebuild(t *testing.T) {
	svc, m, _ := mutableService(t, serve.Config{}, 3)
	ctx := context.Background()

	var last *serve.UpdateResult
	for i := 0; i < 3; i++ {
		var err error
		last, err = m.ApplyUpdate(ctx, fmt.Sprintf(
			`INSERT DATA { <compact/s%d> <compact/p> <compact/o%d> }`, i, i))
		if err != nil {
			t.Fatal(err)
		}
	}
	if !last.Compacted {
		t.Fatalf("third commit did not compact: %+v", last)
	}
	if adds, dels := m.Delta(); adds != 0 || dels != 0 {
		t.Fatalf("delta not reset after compaction: %d adds, %d dels", adds, dels)
	}
	st := svc.Stats()
	if st.Compactions != 1 || st.Commits != 3 {
		t.Fatalf("stats compactions=%d commits=%d, want 1/3", st.Compactions, st.Commits)
	}
	vs := svc.Versions()
	if len(vs) == 0 || vs[0].Kind != serve.VersionCompaction || !vs[0].Live {
		t.Fatalf("newest version entry %+v, want live compaction", vs[0])
	}

	// The rebuilt tables serve the folded data...
	for _, sys := range svc.Systems() {
		res, err := svc.ExecText(ctx, `SELECT ?s WHERE { ?s <compact/p> ?o }`, sys)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Rows.Len() != 3 {
			t.Fatalf("%s: %d rows after compaction, want 3", sys, res.Rows.Len())
		}
	}
	// ...and the next commit overlays the compacted base.
	after, err := m.ApplyUpdate(ctx, `DELETE DATA { <compact/s0> <compact/p> <compact/o0> }`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Compacted || after.DeltaDels != 1 {
		t.Fatalf("post-compaction commit %+v", after)
	}
	for _, sys := range svc.Systems() {
		res, err := svc.ExecText(ctx, `SELECT ?s WHERE { ?s <compact/p> ?o }`, sys)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Rows.Len() != 2 {
			t.Fatalf("%s: %d rows after post-compaction delete, want 2", sys, res.Rows.Len())
		}
	}
}

// TestMutatedMatchesRebuild: after a run of commits, every scheme's served
// rows for generated queries are byte-identical to a from-scratch rebuild
// of the materialized state — the serving-layer slice of the overlay
// equivalence guarantee.
func TestMutatedMatchesRebuild(t *testing.T) {
	svc, m, w := mutableService(t, serve.Config{}, 0)
	ctx := context.Background()

	// A few inserts recombining existing identifiers (new triples over
	// existing properties) plus deletes of real base triples.
	dict := w.DS.Graph.Dict
	g := w.DS.Graph
	p0 := w.Cat.Interesting[0]
	var ins, del strings.Builder
	ins.WriteString("INSERT DATA {\n")
	seen := 0
	for i := 0; i < len(g.Triples) && seen < 4; i++ {
		tr := g.Triples[i]
		if tr.P != p0 {
			continue
		}
		// Recombine: same property, fresh subject.
		fmt.Fprintf(&ins, "<mutref/s%d> %s %s .\n", seen, dict.Term(tr.P).String(), dict.Term(tr.O).String())
		if seen%2 == 0 {
			fmt.Fprintf(&del, "DELETE DATA { %s %s %s } ;\n",
				dict.Term(tr.S).String(), dict.Term(tr.P).String(), dict.Term(tr.O).String())
		}
		seen++
	}
	ins.WriteString("}")
	if seen < 4 {
		t.Fatalf("only %d triples of the chosen property", seen)
	}
	if _, err := m.ApplyUpdate(ctx, ins.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyUpdate(ctx, strings.TrimSuffix(strings.TrimSpace(del.String()), ";")); err != nil {
		t.Fatal(err)
	}

	texts := bench.DistinctQueryTexts(w, 23, 10)
	texts = append(texts, fmt.Sprintf("SELECT ?s ?o WHERE { ?s %s ?o }", dict.Term(p0).String()))
	matchesRebuild(t, svc, m, w, texts)
}

// matchesRebuild checks that every scheme serves, for each query text, the
// rows a from-scratch rebuild of the mutator's materialized state returns,
// and hands back that state.
func matchesRebuild(t *testing.T, svc *serve.Service, m *serve.Mutator, w *bench.Workload, texts []string) *rdf.Graph {
	t.Helper()
	ctx := context.Background()
	merged, mergedCat, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	est, rebuilt, err := bench.RebuildTargets(w, merged, mergedCat)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]core.PhysicalSource, len(rebuilt))
	for _, tgt := range rebuilt {
		byName[tgt.Name] = tgt.Src
	}
	for _, text := range texts {
		compiled, err := bgp.CompileText(text, merged.Dict, est)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		for _, sys := range svc.Systems() {
			want, _, _, err := core.ExecutePlan(byName[sys], compiled.Root, core.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: rebuilt execution: %v", sys, err)
			}
			got, err := svc.ExecText(ctx, text, sys)
			if err != nil {
				t.Fatalf("%s: served execution: %v", sys, err)
			}
			if fmt.Sprint(got.Rows.Data) != fmt.Sprint(want.Data) || got.Rows.W != want.W {
				t.Fatalf("%s: served rows differ from rebuilt for %q", sys, text)
			}
		}
	}
	return merged
}

// TestApplyUpdateTransitions walks one base triple through every
// visibility transition a request can make — tombstoned, un-tombstoned by
// a later request, tombstoned and re-inserted within one request — beside
// a delete of an absent triple whose terms are all known and an insert
// deleted again in the same request, all over a pending addition. After
// each step the counts, the pending delta and the materialized state are
// checked, and every scheme must serve what a rebuild of that state does.
func TestApplyUpdateTransitions(t *testing.T) {
	svc, m, w := mutableService(t, serve.Config{}, 0)
	ctx := context.Background()
	g, dict := w.DS.Graph, w.DS.Graph.Dict
	nt := func(tr rdf.Triple) string {
		return dict.Term(tr.S).String() + " " + dict.Term(tr.P).String() + " " + dict.Term(tr.O).String()
	}
	// The base triple lives under the most frequent property, so its
	// tombstone never empties a property the catalog needs.
	var base rdf.Triple
	for _, tr := range g.Triples {
		if tr.P == w.Cat.AllProps[0] {
			base = tr
			break
		}
	}
	absent := rdf.Triple{S: base.S, P: base.P, O: base.S}
	if g.Has(absent) {
		t.Fatalf("fixture already holds %v", absent)
	}
	b := nt(base)
	const added, fresh = `<transition/s> <transition/p> "kept"`, `<transition/s> <transition/p> "fresh"`

	steps := []struct {
		name        string
		update      string
		ins, del    int
		adds, dels  int
		baseVisible bool
	}{
		{"insert a new triple", "INSERT DATA { " + added + " }", 1, 0, 1, 0, true},
		{"tombstone a base triple", "DELETE DATA { " + b + " }", 0, 1, 1, 1, false},
		{"re-insert it in a later request", "INSERT DATA { " + b + " }", 1, 0, 1, 0, true},
		{"tombstone and re-insert in one request", "DELETE DATA { " + b + " } ; INSERT DATA { " + b + " }", 1, 1, 1, 0, true},
		{"re-insert a visible base triple", "INSERT DATA { " + b + " }", 0, 0, 1, 0, true},
		{"delete an absent triple of known terms", "DELETE DATA { " + nt(absent) + " }", 0, 0, 1, 0, true},
		{"insert and delete a new triple in one request", "INSERT DATA { " + fresh + " } ; DELETE DATA { " + fresh + " }", 1, 1, 1, 0, true},
	}
	texts := []string{
		fmt.Sprintf("SELECT ?o WHERE { %s %s ?o }", dict.Term(base.S).String(), dict.Term(base.P).String()),
		"SELECT ?s ?o WHERE { ?s <transition/p> ?o }",
	}
	for _, st := range steps {
		up, err := m.ApplyUpdate(ctx, st.update)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if up.Inserted != st.ins || up.Deleted != st.del {
			t.Fatalf("%s: inserted %d, deleted %d; want %d, %d", st.name, up.Inserted, up.Deleted, st.ins, st.del)
		}
		if adds, dels := m.Delta(); adds != st.adds || dels != st.dels {
			t.Fatalf("%s: delta %d adds, %d dels; want %d, %d", st.name, adds, dels, st.adds, st.dels)
		}
		merged := matchesRebuild(t, svc, m, w, texts)
		if merged.Has(base) != st.baseVisible || merged.Has(absent) {
			t.Fatalf("%s: materialized state holds base %v, absent %v; want %v, false",
				st.name, merged.Has(base), merged.Has(absent), st.baseVisible)
		}
		if want := g.Len() + st.adds - st.dels; merged.Len() != want || up.Triples != want {
			t.Fatalf("%s: %d triples materialized, %d reported; want %d", st.name, merged.Len(), up.Triples, want)
		}
	}
}

// TestMutatorRejectsUnnormalizedBase: visibility binary-searches the base
// graph, so NewMutator and Rebase refuse one that is not SPO-sorted or not
// duplicate-free rather than answer wrongly, and Rebase installs nothing.
func TestMutatorRejectsUnnormalizedBase(t *testing.T) {
	svc, m, w := mutableService(t, serve.Config{}, 0)
	g := w.DS.Graph
	n := len(g.Triples)
	swapped := append([]rdf.Triple(nil), g.Triples...)
	swapped[0], swapped[n-1] = swapped[n-1], swapped[0]
	duplicated := append(append([]rdf.Triple(nil), g.Triples[:2]...), g.Triples[1:]...)
	for name, ts := range map[string][]rdf.Triple{"unsorted": swapped, "duplicated": duplicated} {
		bad := &rdf.Graph{Dict: g.Dict, Triples: ts}
		if _, err := serve.NewMutator(svc, serve.MutatorConfig{Graph: bad, Cat: w.Cat, Est: w.Estimator(), Targets: svc.Targets()}); err == nil || !strings.Contains(err.Error(), "not normalized") {
			t.Fatalf("%s: NewMutator err %v, want a normalization error", name, err)
		}
		version := svc.Version()
		if err := m.Rebase(bad, w.Cat, w.Estimator(), svc.Targets()); err == nil || !strings.Contains(err.Error(), "not normalized") {
			t.Fatalf("%s: Rebase err %v, want a normalization error", name, err)
		}
		if svc.Version() != version {
			t.Fatalf("%s: rejected Rebase installed version %d", name, svc.Version())
		}
	}
}

// TestFaultInjectionServesStaleState: with SetFaultEvery(1) the commit
// installs a new version whose rows are the old state — the read surface
// the SI checker exists to catch.
func TestFaultInjectionServesStaleState(t *testing.T) {
	svc, m, _ := mutableService(t, serve.Config{}, 0)
	ctx := context.Background()

	if _, err := m.ApplyUpdate(ctx, `INSERT DATA { <fault/seed> <fault/p> <fault/o> }`); err != nil {
		t.Fatal(err)
	}
	m.SetFaultEvery(1)
	up, err := m.ApplyUpdate(ctx, `INSERT DATA { <fault/s2> <fault/p> <fault/o2> }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.ExecText(ctx, `SELECT ?s WHERE { ?s <fault/p> ?o }`, svc.DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != up.Version {
		t.Fatalf("read version %d, commit installed %d", res.Version, up.Version)
	}
	if res.Rows.Len() != 1 {
		t.Fatalf("faulty commit served %d rows, want the stale 1", res.Rows.Len())
	}
	// Disarmed, the next commit repairs the view (full delta reinstalled).
	m.SetFaultEvery(0)
	if _, err := m.ApplyUpdate(ctx, `INSERT DATA { <fault/s3> <fault/p> <fault/o3> }`); err != nil {
		t.Fatal(err)
	}
	res, err = svc.ExecText(ctx, `SELECT ?s WHERE { ?s <fault/p> ?o }`, svc.DefaultSystem())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows.Len() != 3 {
		t.Fatalf("recovered commit served %d rows, want 3", res.Rows.Len())
	}
}

// TestUpdateHTTP drives the write path end-to-end over HTTP: commit,
// versioned query response, /debug/versions, parse diagnostics, and the
// read-only 501.
func TestUpdateHTTP(t *testing.T) {
	svc, _, _ := mutableService(t, serve.Config{}, 0)
	srv := httptest.NewServer(serve.NewHandler(svc))
	defer srv.Close()

	post := func(u string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.PostForm(srv.URL+"/update", url.Values{"u": {u}})
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := post(`INSERT DATA { <http/s> <http/p> "v" }`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %s", resp.StatusCode, body)
	}
	var ur serve.UpdateResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Version != 2 || ur.BaseVersion != 1 || ur.Inserted != 1 {
		t.Fatalf("update response %+v", ur)
	}

	qresp, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape(`SELECT ?s WHERE { ?s <http/p> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var qr serve.QueryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 1 || qr.Version != ur.Version {
		t.Fatalf("query response rows=%d version=%d, want 1/%d", qr.RowCount, qr.Version, ur.Version)
	}

	vresp, err := http.Get(srv.URL + "/debug/versions")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vs []serve.VersionEntry
	if err := json.NewDecoder(vresp.Body).Decode(&vs); err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Version != 2 || !vs[0].Live || vs[0].Kind != serve.VersionCommit ||
		vs[1].Version != 1 || vs[1].Live || vs[1].Kind != serve.VersionInitial {
		t.Fatalf("/debug/versions %+v", vs)
	}

	// Parse diagnostics carry the position.
	resp, body = post(`INSERT DATA { <s> <p> ?var }`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad update status %d: %s", resp.StatusCode, body)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Class != serve.ErrClassParse || er.Line < 1 || er.Col < 1 {
		t.Fatalf("bad update error %+v", er)
	}

	// A service without a mutator is read-only.
	ro := newService(t, serve.Config{})
	roSrv := httptest.NewServer(serve.NewHandler(ro))
	defer roSrv.Close()
	roResp, err := http.PostForm(roSrv.URL+"/update", url.Values{"u": {`INSERT DATA { <a> <b> <c> }`}})
	if err != nil {
		t.Fatal(err)
	}
	roResp.Body.Close()
	if roResp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("read-only update status %d, want 501", roResp.StatusCode)
	}
}
