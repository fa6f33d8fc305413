// Package blackswan's root benchmark suite: one testing.B benchmark per
// table and figure of the paper's evaluation, so
//
//	go test -bench=. -benchmem
//
// regenerates every experiment (at a reduced scale; use cmd/swanbench for
// full-scale runs and formatted output). Each benchmark reports the key
// simulated quantity of its experiment as custom metrics.
package blackswan_test

import (
	"sync"
	"testing"

	"blackswan/internal/bench"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/simio"
)

var (
	benchOnce sync.Once
	benchWL   *bench.Workload
	benchErr  error
)

// workload is shared across benchmarks; generation is not part of any
// measured loop.
func workload(b *testing.B) *bench.Workload {
	b.Helper()
	benchOnce.Do(func() {
		benchWL, benchErr = bench.NewWorkload(datagen.Config{
			Triples: 150_000, Properties: 222, Interesting: 28, Seed: 42,
		})
	})
	if benchErr != nil {
		b.Fatalf("workload: %v", benchErr)
	}
	return benchWL
}

// BenchmarkTable1Stats regenerates the data set details (Table 1).
func BenchmarkTable1Stats(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := w.DS.Stats()
		if st.Triples == 0 {
			b.Fatal("no triples")
		}
	}
}

// BenchmarkFig1CFD regenerates the cumulative frequency distributions.
func BenchmarkFig1CFD(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := bench.Fig1(w, 20)
		if len(series) != 3 {
			b.Fatal("bad series")
		}
	}
}

// BenchmarkTable2Coverage regenerates the query-space coverage analysis.
func BenchmarkTable2Coverage(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(core.Table2(w.Cat.Consts)) != 8 {
			b.Fatal("bad coverage")
		}
	}
}

// BenchmarkTable4CStoreRedo regenerates the Section 3 repetition experiment.
func BenchmarkTable4CStoreRedo(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	var geo float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4(w)
		if err != nil {
			b.Fatal(err)
		}
		geo = rows[0].Geo // machine A, cold, real
	}
	b.ReportMetric(geo, "simColdG-s")
}

// BenchmarkTable5DataRead regenerates the per-query I/O volume table.
func BenchmarkTable5DataRead(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	var mb float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table5(w)
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		for _, r := range rows {
			total += r.BytesRead
		}
		mb = float64(total) / 1e6
	}
	b.ReportMetric(mb, "simMBread")
}

// BenchmarkFig5IOHistory regenerates the I/O read-history traces.
func BenchmarkFig5IOHistory(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := bench.Fig5(w, 20)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 4 {
			b.Fatal("bad series")
		}
	}
}

// gridBench shares loaded systems across the two grid benchmarks.
var (
	gridOnce sync.Once
	gridSys  []*bench.System
	gridErr  error
)

func gridSystems(b *testing.B) []*bench.System {
	b.Helper()
	w := workload(b)
	gridOnce.Do(func() {
		gridSys, gridErr = bench.FullGrid(w)
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridSys
}

// BenchmarkTable6Cold regenerates the cold-run grid (the paper's main
// result) and reports the simulated geometric means that decide the
// row-store verdict.
func BenchmarkTable6Cold(b *testing.B) {
	systems := gridSystems(b)
	b.ResetTimer()
	var pso, vert float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunGrid(systems, bench.Cold)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			switch r.System {
			case "DBX triple PSO":
				pso = r.GStarReal
			case "DBX vert SO":
				vert = r.GStarReal
			}
		}
	}
	b.ReportMetric(pso, "simDBXtripleG*-s")
	b.ReportMetric(vert, "simDBXvertG*-s")
}

// BenchmarkTable7Hot regenerates the hot-run grid.
func BenchmarkTable7Hot(b *testing.B) {
	systems := gridSystems(b)
	b.ResetTimer()
	var vertU float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunGrid(systems, bench.Hot)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.System == "MonetDB vert SO" {
				vertU = r.GStarUser
			}
		}
	}
	b.ReportMetric(vertU, "simMonetVertG*user-s")
}

// BenchmarkFig6PropertySweep regenerates the 28→222 property sweep.
func BenchmarkFig6PropertySweep(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := bench.Fig6(w, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 16 {
			b.Fatalf("points = %d", len(pts))
		}
	}
}

// BenchmarkFig7ScaleUp regenerates the 222→1000 property-splitting
// experiment and reports the final vert/triple ratio (the crossover).
func BenchmarkFig7ScaleUp(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := bench.Fig7(w, 1000, 3, 99)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-1]
		ratio = last.VertSec / last.TripleSec
	}
	b.ReportMetric(ratio, "vert/triple@1000")
}

// The remaining benchmarks are conventional micro-benchmarks of the
// underlying machinery (real wall-clock time, not simulated).

// BenchmarkQ2TriplePSOHot measures the actual execution engine throughput
// for the most join-heavy restricted query.
func BenchmarkQ2TriplePSOHot(b *testing.B) {
	w := workload(b)
	sys, err := bench.NewMonetTriple(w, rdf.PSO, simio.MachineB())
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{ID: core.Q2}
	if _, err := sys.DB.Run(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DB.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQ8VertHot measures the object-join black swan on the vertical
// scheme.
func BenchmarkQ8VertHot(b *testing.B) {
	w := workload(b)
	sys, err := bench.NewMonetVert(w, simio.MachineB())
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{ID: core.Q8}
	if _, err := sys.DB.Run(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DB.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures the data generator itself.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := datagen.Generate(datagen.Config{
			Triples: 60_000, Properties: 222, Interesting: 28, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitProperties measures the Figure 7 transform.
func BenchmarkSplitProperties(b *testing.B) {
	w := workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datagen.SplitProperties(w.DS, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
