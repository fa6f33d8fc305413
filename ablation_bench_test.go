// Ablation benchmarks for the design choices DESIGN.md calls out: B+tree
// key-prefix compression, column RLE compression, and the C-Store buffer
// restriction. Each reports the simulated quantity the mechanism changes,
// so `go test -bench=Ablation` quantifies every mechanism's contribution.
package blackswan_test

import (
	"math"
	"testing"

	"blackswan/internal/colstore"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// BenchmarkAblationPrefixCompression quantifies what B+tree key-prefix
// compression buys the PSO-clustered triple-store: the on-disk footprint
// ratio and the cold full-scan I/O time ratio. The paper's Section 4.1
// argument — "in practice not storing the entire property column" — depends
// on this mechanism.
func BenchmarkAblationPrefixCompression(b *testing.B) {
	w := workload(b)
	rows := rel.NewCap(3, w.DS.Graph.Len())
	for _, t := range w.DS.Graph.Triples {
		rows.Append(uint64(t.S), uint64(t.P), uint64(t.O))
	}
	build := func(compress bool) (*rowstore.Engine, *rowstore.Table) {
		store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 8 << 30})
		eng := rowstore.NewEngine(store)
		t, err := eng.CreateTable(rowstore.TableSpec{
			Name: "triples", Width: 3,
			Clustered:      rowstore.Perm{1, 0, 2}, // PSO
			PrefixCompress: compress,
		}, rows)
		if err != nil {
			b.Fatal(err)
		}
		return eng, t
	}
	engC, tC := build(true)
	engP, tP := build(false)

	coldScanIO := func(eng *rowstore.Engine, t *rowstore.Table) float64 {
		eng.Store.DropCaches()
		eng.Store.Clock().Reset()
		var batch rel.Rel
		for c := eng.ScanEqStream(t, nil, math.MaxInt, 0, 1, 2); c.Next(&batch); {
		}
		return eng.Store.Clock().IO().Seconds()
	}
	b.ResetTimer()
	var sizeRatio, ioRatio float64
	for i := 0; i < b.N; i++ {
		sizeRatio = float64(tP.SizeBytes()) / float64(tC.SizeBytes())
		ioRatio = coldScanIO(engP, tP) / coldScanIO(engC, tC)
	}
	b.ReportMetric(sizeRatio, "plain/compressed-bytes")
	b.ReportMetric(ioRatio, "plain/compressed-coldIO")
}

// BenchmarkAblationRLE quantifies the column-store twin: RLE on the sorted
// property column makes a PSO-clustered selection's property access nearly
// free.
func BenchmarkAblationRLE(b *testing.B) {
	w := workload(b)
	ts := append([]rdf.Triple(nil), w.DS.Graph.Triples...)
	rdf.PSO.Sort(ts)
	rows := rel.NewCap(3, len(ts))
	for _, t := range ts {
		rows.Append(uint64(t.P), uint64(t.S), uint64(t.O))
	}
	build := func(compress bool) (*colstore.Engine, *colstore.Table) {
		store := simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 8 << 30})
		eng := colstore.NewEngine(store)
		t, err := eng.CreateTable("triples", rows, compress)
		if err != nil {
			b.Fatal(err)
		}
		return eng, t
	}
	engC, tC := build(true)
	engP, tP := build(false)

	coldSelectIO := func(eng *colstore.Engine, t *colstore.Table) float64 {
		eng.Store.DropCaches()
		eng.Store.Clock().Reset()
		p := t.Cols[0]
		lo, hi := eng.SelectRange(p, uint64(w.Cat.Consts.Type))
		scan := eng.NewColScan(lo, hi, []colstore.EqCond{{C: p, V: uint64(w.Cat.Consts.Type)}}, []colstore.StreamCol{{C: p}}, math.MaxInt)
		var batch rel.Rel
		for scan.Next(&batch) {
		}
		return eng.Store.Clock().IO().Seconds()
	}
	b.ResetTimer()
	var sizeRatio float64
	for i := 0; i < b.N; i++ {
		sizeRatio = float64(tP.Cols[0].DiskBytes()) / float64(tC.Cols[0].DiskBytes())
		// Touch both so the work is comparable even though the select on
		// the sorted column reads only the qualifying range.
		coldSelectIO(engP, tP)
		coldSelectIO(engC, tC)
	}
	b.ReportMetric(sizeRatio, "plain/RLE-bytes")
}

// BenchmarkAblationCStoreBuffer quantifies the restrictive-buffer effect of
// Section 3: with C-Store's small pool, q3 re-reads data on every (hot!)
// run; with an ample pool the hot run does no I/O at all.
func BenchmarkAblationCStoreBuffer(b *testing.B) {
	w := workload(b)
	build := func(pool int64) *colstore.Engine {
		store := simio.NewStore(simio.Config{Machine: simio.MachineA(), PoolBytes: pool, PageSize: 4096})
		eng := colstore.NewEngine(store)
		eng.PageAtATime = true
		return eng
	}
	hotReadMB := func(pool int64) float64 {
		eng := build(pool)
		db, err := core.LoadColVertRestricted(eng, w.DS.Graph, w.Cat)
		if err != nil {
			b.Fatal(err)
		}
		q := core.Query{ID: core.Q3}
		if _, err := db.Run(q); err != nil { // warm-up
			b.Fatal(err)
		}
		eng.Store.ResetStats()
		if _, err := db.Run(q); err != nil {
			b.Fatal(err)
		}
		return float64(eng.Store.Stats().BytesRead) / 1e6
	}
	b.ResetTimer()
	var small, big float64
	for i := 0; i < b.N; i++ {
		small = hotReadMB(int64(w.DS.Graph.Len()) * 3) // the C-Store pool
		big = hotReadMB(8 << 30)                       // ample memory
	}
	b.ReportMetric(small, "hotMBread-smallpool")
	b.ReportMetric(big, "hotMBread-bigpool")
}
