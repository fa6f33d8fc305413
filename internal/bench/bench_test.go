package bench

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/simio"
)

var (
	wlOnce sync.Once
	wl     *Workload
	wlErr  error
)

// testWorkload is shared across tests: generation and loading dominate the
// test runtime, the measurements themselves are cheap.
func testWorkload(t *testing.T) *Workload {
	t.Helper()
	wlOnce.Do(func() {
		wl, wlErr = NewWorkload(datagen.Config{
			Triples: 120_000, Properties: 222, Interesting: 28, Seed: 42,
		})
	})
	if wlErr != nil {
		t.Fatalf("workload: %v", wlErr)
	}
	return wl
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 100}); g < 9.9 || g > 10.1 {
		t.Fatalf("GeoMean(1,100) = %f", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %f", g)
	}
	if g := GeoMean([]float64{0, 0}); g <= 0 {
		t.Fatal("GeoMean clamps zeros")
	}
}

func TestMeasureColdVsHot(t *testing.T) {
	w := testWorkload(t)
	sys, err := NewMonetTriple(w, rdf.PSO, simio.MachineB())
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{ID: core.Q1}
	cold, res, err := sys.Measure(q, Cold)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("q1 returned nothing")
	}
	hot, _, err := sys.Measure(q, Hot)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Real >= cold.Real {
		t.Fatalf("hot %v not faster than cold %v", hot.Real, cold.Real)
	}
	if hot.User > cold.User*11/10 {
		t.Fatalf("hot user %v exceeds cold user %v", hot.User, cold.User)
	}
	// User time never exceeds real time.
	if cold.User > cold.Real || hot.User > hot.Real {
		t.Fatal("user > real")
	}
}

func TestTable1AndTable2Render(t *testing.T) {
	w := testWorkload(t)
	t1 := Table1(w)
	if !strings.Contains(t1, "total triples") {
		t.Fatal("Table1 malformed")
	}
	t2 := Table2(w)
	for _, want := range []string{"q1", "p7", "q8", "B"} {
		if !strings.Contains(t2, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, t2)
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	w := testWorkload(t)
	series := Fig1(w, 20)
	if len(series) != 3 {
		t.Fatalf("Fig1 series = %d", len(series))
	}
	// Property skew ≫ subject skew: at the first decile the property curve
	// must be far above the subject curve.
	props, subjs := series[0], series[1]
	if props.Points[1].PctTriples < 2*subjs.Points[1].PctTriples {
		t.Fatalf("property CFD (%.1f%%) not ≫ subject CFD (%.1f%%)",
			props.Points[1].PctTriples, subjs.Points[1].PctTriples)
	}
	if out := FormatFig1(series); !strings.Contains(out, "properties") {
		t.Fatal("FormatFig1 malformed")
	}
}

// TestTable4Shape asserts the Section 3 findings: cold ≫ hot, and the
// 4x-faster disks of machine B produce only a marginal cold-run improvement
// under C-Store's synchronous page-at-a-time I/O (finding F5).
func TestTable4Shape(t *testing.T) {
	w := testWorkload(t)
	rows, err := Table4(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table4 rows = %d", len(rows))
	}
	get := func(machine string, mode Mode, kind string) Table4Row {
		for _, r := range rows {
			if r.Machine == machine && r.Mode == mode && r.Kind == kind {
				return r
			}
		}
		t.Fatalf("missing row %s/%v/%s", machine, mode, kind)
		return Table4Row{}
	}
	aColdReal := get("A", Cold, "real")
	aHotReal := get("A", Hot, "real")
	bColdReal := get("B", Cold, "real")
	if aColdReal.Geo <= aHotReal.Geo {
		t.Fatalf("cold G %.4f not above hot G %.4f", aColdReal.Geo, aHotReal.Geo)
	}
	// F5: B has ~4x the bandwidth but the cold improvement stays below 2x.
	improvement := aColdReal.Geo / bColdReal.Geo
	if improvement > 2.0 {
		t.Fatalf("machine B improved cold G by %.2fx; page-at-a-time I/O should cap it", improvement)
	}
	if improvement < 0.8 {
		t.Fatalf("machine B slower than A by %.2fx", 1/improvement)
	}
	if out := FormatTable4(rows); !strings.Contains(out, "machine") {
		t.Fatal("FormatTable4 malformed")
	}
}

// TestTable5Shape asserts queries read major portions of the database and
// that the restrictive buffer pool causes re-reading (data read can exceed
// the footprint of the columns a query needs).
func TestTable5Shape(t *testing.T) {
	w := testWorkload(t)
	rows, err := Table5(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table5 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BytesRead <= 0 {
			t.Errorf("%s read no data", r.Query)
		}
		if r.RowsOut <= 0 {
			t.Errorf("%s returned no rows", r.Query)
		}
	}
	// q5 (three patterns over big tables) reads more than q1 (one column).
	if rows[4].BytesRead <= rows[0].BytesRead {
		t.Errorf("q5 read %d <= q1 read %d", rows[4].BytesRead, rows[0].BytesRead)
	}
	if out := FormatTable5(rows); !strings.Contains(out, "data read") {
		t.Fatal("FormatTable5 malformed")
	}
}

func TestFig5Shape(t *testing.T) {
	w := testWorkload(t)
	series, err := Fig5(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("Fig5 series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("series %s/%s empty", s.Machine, s.Query)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Bytes < s.Points[i-1].Bytes {
				t.Fatalf("series %s/%s not monotone", s.Machine, s.Query)
			}
		}
	}
	if out := FormatFig5(series); !strings.Contains(out, "data read") {
		t.Fatal("FormatFig5 malformed")
	}
}

// gridOnce caches the expensive Table 6/7 measurement for the shape tests.
var (
	gridOnce sync.Once
	gridCold []GridResult
	gridHot  []GridResult
	gridErr  error
)

func grids(t *testing.T) ([]GridResult, []GridResult) {
	t.Helper()
	w := testWorkload(t)
	gridOnce.Do(func() {
		systems, err := FullGrid(w)
		if err != nil {
			gridErr = err
			return
		}
		gridCold, gridErr = RunGrid(systems, Cold)
		if gridErr != nil {
			return
		}
		gridHot, gridErr = RunGrid(systems, Hot)
	})
	if gridErr != nil {
		t.Fatalf("grid: %v", gridErr)
	}
	return gridCold, gridHot
}

var update = flag.Bool("update", false, "rewrite testdata/grid.golden and testdata/stream.golden from the measured cells")

const gridGolden = "testdata/grid.golden"

// gridCells renders every measured cell of a grid as one line — mode,
// system, query, real and user as integer nanoseconds of the simulated
// clock — in grid and benchmark-query order.
func gridCells(mode Mode, rs []GridResult) []string {
	var lines []string
	for _, r := range rs {
		for _, q := range core.BenchmarkQueries() {
			if tm, ok := r.Times[q.String()]; ok {
				lines = append(lines, fmt.Sprintf("%s\t%s\t%s\t%d\t%d", mode, r.System, q, tm.Real, tm.User))
			}
		}
	}
	return lines
}

// checkGridGolden pins the simulated clock per cell: every system × query
// cell of the mode's grid must equal the golden file to the nanosecond. The
// clock is deterministic, so a change that moves a paper number has to show
// it in the diff of testdata/grid.golden (go test ./internal/bench -run
// Table -update regenerates both tables).
func checkGridGolden(t *testing.T, mode Mode) {
	t.Helper()
	cold, hot := grids(t)
	if *update {
		lines := append(gridCells(Cold, cold), gridCells(Hot, hot)...)
		if err := os.WriteFile(gridGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(gridGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, mode.String()+"\t") {
			want = append(want, line)
		}
	}
	grid := cold
	if mode == Hot {
		grid = hot
	}
	got := gridCells(mode, grid)
	if len(got) != len(want) {
		t.Fatalf("%s grid has %d cells, %s pins %d", mode, len(got), gridGolden, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("simulated clock moved (mode, system, query, real ns, user ns):\n  got  %s\n  want %s", got[i], want[i])
		}
	}
}

func find(t *testing.T, rs []GridResult, name string) GridResult {
	t.Helper()
	for _, r := range rs {
		if r.System == name {
			return r
		}
	}
	t.Fatalf("no system %q", name)
	return GridResult{}
}

// TestTable6Findings asserts the paper's headline cold-run findings, and
// pins every cold cell of the grid.
func TestTable6Findings(t *testing.T) {
	cold, _ := grids(t)
	checkGridGolden(t, Cold)
	if len(cold) != 7 {
		t.Fatalf("grid rows = %d", len(cold))
	}
	dbxSPO := find(t, cold, "DBX triple SPO")
	dbxPSO := find(t, cold, "DBX triple PSO")
	dbxVert := find(t, cold, "DBX vert SO")
	monPSO := find(t, cold, "MonetDB triple PSO")
	monSPO := find(t, cold, "MonetDB triple SPO")
	monVert := find(t, cold, "MonetDB vert SO")
	cstore := find(t, cold, "C-Store vert SO")

	// PSO clustering beats the original SPO proposal on the row store.
	if dbxPSO.GReal >= dbxSPO.GReal {
		t.Errorf("F1a: DBX PSO G %.4f not below SPO G %.4f", dbxPSO.GReal, dbxSPO.GReal)
	}
	// F1: with proper clustering the triple-store beats the vertical
	// partitioning on a row store (the paper's headline black swan).
	if dbxPSO.GStarReal >= dbxVert.GStarReal {
		t.Errorf("F1b: DBX PSO G* %.4f not below vert G* %.4f", dbxPSO.GStarReal, dbxVert.GStarReal)
	}
	// F3: column-store beats row-store by a wide margin on user time.
	if monPSO.GUser*3 >= dbxPSO.GUser {
		t.Errorf("F3: MonetDB PSO user G %.4f not ≪ DBX PSO user G %.4f", monPSO.GUser, dbxPSO.GUser)
	}
	// F2a: the vertical partitioning is competitive on the column store
	// for the restricted benchmark (G within 2x of triple-PSO) and beats
	// the SPO-clustered triple-store.
	if monVert.GReal >= monSPO.GReal {
		t.Errorf("F2a: MonetDB vert G %.4f not below triple-SPO G %.4f", monVert.GReal, monSPO.GReal)
	}
	if monVert.GReal >= 2*monPSO.GReal {
		t.Errorf("F2a: MonetDB vert G %.4f more than 2x triple-PSO G %.4f", monVert.GReal, monPSO.GReal)
	}
	// F2b black swans: the full-scale queries and q8 prefer the
	// triple-store on the column store.
	for _, q := range []string{"q2*", "q3*", "q6*", "q8"} {
		if monVert.Times[q].Real <= monPSO.Times[q].Real {
			t.Errorf("F2b: MonetDB vert %s (%.4fs) not slower than triple-PSO (%.4fs)",
				q, monVert.Times[q].Real.Seconds(), monPSO.Times[q].Real.Seconds())
		}
	}
	// F4: the vertical scheme degrades more when moving from the 7
	// restricted queries to the full 12 (G*/G ratio).
	vertRatio := monVert.GStarReal / monVert.GReal
	tripleRatio := monPSO.GStarReal / monPSO.GReal
	if vertRatio <= tripleRatio {
		t.Errorf("F4: MonetDB vert G*/G %.2f not above triple G*/G %.2f", vertRatio, tripleRatio)
	}
	dbxVertRatio := dbxVert.GStarReal / dbxVert.GReal
	dbxTripleRatio := dbxPSO.GStarReal / dbxPSO.GReal
	if dbxVertRatio <= dbxTripleRatio {
		t.Errorf("F4: DBX vert G*/G %.2f not above triple G*/G %.2f", dbxVertRatio, dbxTripleRatio)
	}
	// C-Store answers only the original 7 queries; its G* is undefined.
	if cstore.GStarReal != 0 {
		t.Error("C-Store reported a G* despite missing queries")
	}
	if len(cstore.Times) != 7 {
		t.Errorf("C-Store ran %d queries", len(cstore.Times))
	}
	if out := FormatGrid(cold); !strings.Contains(out, "G*/G") {
		t.Fatal("FormatGrid malformed")
	}
}

// TestTable7Findings asserts hot-run properties: hot ≤ cold everywhere, and
// the restricted-query I/O advantage of the vertical scheme vanishes. Every
// hot cell of the grid is pinned too.
func TestTable7Findings(t *testing.T) {
	cold, hot := grids(t)
	checkGridGolden(t, Hot)
	for i := range cold {
		for q, ct := range cold[i].Times {
			ht, ok := hot[i].Times[q]
			if !ok {
				t.Fatalf("%s missing hot %s", hot[i].System, q)
			}
			if ht.Real > ct.Real*11/10 {
				t.Errorf("%s %s: hot %v above cold %v", cold[i].System, q, ht.Real, ct.Real)
			}
		}
	}
	// The asterisk versions are faster on triple-store than vert when hot
	// ("since reading data into memory is not an issue anymore, all
	// asterisk versions of the queries are faster on triple-store").
	monPSO := find(t, hot, "MonetDB triple PSO")
	monVert := find(t, hot, "MonetDB vert SO")
	for _, q := range []string{"q2*", "q3*", "q6*"} {
		if monVert.Times[q].Real <= monPSO.Times[q].Real {
			t.Errorf("hot %s: vert %.4fs not above triple %.4fs",
				q, monVert.Times[q].Real.Seconds(), monPSO.Times[q].Real.Seconds())
		}
	}
}

func TestFig6Shape(t *testing.T) {
	w := testWorkload(t)
	points, err := Fig6(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	byQuery := map[string][]Fig6Point{}
	for _, p := range points {
		byQuery[p.Query.String()] = append(byQuery[p.Query.String()], p)
	}
	if len(byQuery) != 4 {
		t.Fatalf("queries = %d", len(byQuery))
	}
	for q, series := range byQuery {
		first, last := series[0], series[len(series)-1]
		if last.Properties <= first.Properties {
			t.Fatalf("%s: property counts not increasing", q)
		}
		// Vertical partitioning slows down as more properties join the
		// aggregation; the triple-store stays roughly flat.
		if last.VertSec <= first.VertSec {
			t.Errorf("%s: vert did not grow (%.4f -> %.4f)", q, first.VertSec, last.VertSec)
		}
		if last.TripleSec > 2.5*first.TripleSec {
			t.Errorf("%s: triple grew too much (%.4f -> %.4f)", q, first.TripleSec, last.TripleSec)
		}
	}
	if out := FormatFig6(points); !strings.Contains(out, "#properties") {
		t.Fatal("FormatFig6 malformed")
	}
}

func TestFig7Shape(t *testing.T) {
	w := testWorkload(t)
	points, err := Fig7(w, 1000, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	byQuery := map[string][]Fig7Point{}
	for _, p := range points {
		byQuery[p.Query.String()] = append(byQuery[p.Query.String()], p)
	}
	if len(byQuery) != 4 {
		t.Fatalf("queries = %d", len(byQuery))
	}
	for q, series := range byQuery {
		first, last := series[0], series[len(series)-1]
		// F4: vert query times grow steadily with the property count …
		if last.VertSec <= first.VertSec {
			t.Errorf("%s: vert did not degrade (%.4f -> %.4f)", q, first.VertSec, last.VertSec)
		}
		// … and the triple-store ends up winning at high property counts.
		if last.VertSec <= last.TripleSec {
			t.Errorf("%s: no crossover at %d properties (vert %.4f vs triple %.4f)",
				q, last.Properties, last.VertSec, last.TripleSec)
		}
	}
	if _, err := Fig7(w, 10, 3, 99); err == nil {
		t.Fatal("Fig7 accepted maxProps below current")
	}
	if out := FormatFig7(points); !strings.Contains(out, "#properties") {
		t.Fatal("FormatFig7 malformed")
	}
}

// TestRunGridParallelDeterministic asserts the concurrent grid harness:
// rows measured in parallel goroutines must match a sequential per-row
// measurement exactly, simulated timings included, run after run.
func TestRunGridParallelDeterministic(t *testing.T) {
	w := testWorkload(t)
	systems, err := FullGrid(w)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGrid(systems, Cold)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference on fresh systems (a Store's cache state depends
	// on measurement history).
	seqSystems, err := FullGrid(w)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]GridResult, len(seqSystems))
	for i, sys := range seqSystems {
		seq[i], err = gridRow(sys, Cold)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("parallel grid differs from sequential:\n%v\nvs\n%v", par, seq)
	}
	again, err := RunGrid(systems, Cold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, again) {
		t.Fatal("parallel grid not stable across runs")
	}
	for i, sys := range systems {
		if par[i].System != sys.Name {
			t.Fatalf("row %d is %q, want %q (output order must follow input order)", i, par[i].System, sys.Name)
		}
	}
}

// TestBGPWorkload smoke-tests the generated-workload experiment: queries
// compile, run on all four schemes with identical results, and the
// renderer mentions every system.
func TestBGPWorkload(t *testing.T) {
	w := testWorkload(t)
	systems, err := BGPSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunBGPWorkload(w, systems, 6, 17, Cold)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	nonEmpty := 0
	for _, r := range results {
		if len(r.Times) != len(systems) {
			t.Fatalf("query %d has %d timings", r.Index, len(r.Times))
		}
		for si, tm := range r.Times {
			if tm.Real <= 0 || tm.User <= 0 {
				t.Errorf("query %d on %s: non-positive timing %v", r.Index, systems[si].Name, tm)
			}
			if tm.User > tm.Real {
				t.Errorf("query %d on %s: user %v above real %v", r.Index, systems[si].Name, tm.User, tm.Real)
			}
		}
		if r.Rows > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("all generated queries empty on the benchmark workload")
	}
	// Determinism: a second sweep on fresh systems reproduces everything.
	systems2, err := BGPSystems(w)
	if err != nil {
		t.Fatal(err)
	}
	results2, err := RunBGPWorkload(w, systems2, 6, 17, Cold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results, results2) {
		t.Fatal("BGP workload not deterministic")
	}
	out := FormatBGPWorkload(results, systems, Cold)
	for _, sys := range systems {
		if !strings.Contains(out, sys.Name) {
			t.Fatalf("FormatBGPWorkload missing %q", sys.Name)
		}
	}
}

// TestMeasurePlanMatchesMeasure cross-checks the two measurement paths:
// running q7's own plan through MeasurePlan must reproduce Measure's
// simulated timings exactly, and the compiled BGP text of q7 must return
// the same rows at a comparable cost.
func TestMeasurePlanMatchesMeasure(t *testing.T) {
	w := testWorkload(t)
	sys, err := NewMonetVert(w, simio.MachineB())
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{ID: core.Q7}
	want, wantRes, err := sys.Measure(q, Cold)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := core.PlanFor(q, w.Cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	got, gotRes, err := sys.MeasurePlan(hand.Root, Cold)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(gotRes, wantRes) {
		t.Fatalf("plan-path q7 result differs: %d vs %d rows", gotRes.Len(), wantRes.Len())
	}
	if got.Real != want.Real || got.User != want.User {
		t.Fatalf("plan-path q7 timing %v/%v, benchmark %v/%v", got.Real, got.User, want.Real, want.User)
	}
	// The compiled text may order the joins differently, so only the
	// result and the rough cost must agree.
	text, err := bgp.PaperText(q, w.DS.Graph.Dict, w.Cat.Consts)
	if err != nil {
		t.Fatal(err)
	}
	est := bgp.NewEstimator(w.DS.Graph, w.Cat.Interesting)
	compiled, err := bgp.CompileText(text, w.DS.Graph.Dict, est)
	if err != nil {
		t.Fatal(err)
	}
	ct, cRes, err := sys.MeasurePlan(compiled.Root, Cold)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(cRes, wantRes) {
		t.Fatalf("compiled q7 result differs: %d vs %d rows", cRes.Len(), wantRes.Len())
	}
	if ct.Real > want.Real*11/10 {
		t.Fatalf("compiled q7 real %v well above benchmark %v", ct.Real, want.Real)
	}
}
