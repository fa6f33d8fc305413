// Scaleup: the Section 4.4 experiment as an application scenario. Real RDF
// schemas grow: ontologies add sub-properties, federated data sets multiply
// predicates. This example takes one data set, splits its properties
// 222 → 1000 while keeping the triples fixed, and shows how the two storage
// schemes diverge on the full-scale aggregation q2* — the paper's Figure 7
// crossover.
package main

import (
	"fmt"
	"log"

	"blackswan/internal/bench"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/simio"
)

func main() {
	w, err := bench.NewWorkload(datagen.Config{
		Triples: 150_000, Properties: 222, Interesting: 28, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("q2* (aggregate over ALL properties), cold runs, MonetDB profile:")
	fmt.Printf("%12s %14s %14s\n", "#properties", "triple (s)", "vert (s)")

	q := core.Query{ID: core.Q2, Star: true}
	for _, target := range []int{222, 400, 600, 800, 1000} {
		ds := w.DS
		if target > 222 {
			ds, err = datagen.SplitProperties(w.DS, target, 99)
			if err != nil {
				log.Fatal(err)
			}
		}
		cat, err := bench.CatalogOf(ds)
		if err != nil {
			log.Fatal(err)
		}
		wk := &bench.Workload{DS: ds, Cat: cat}
		triple, err := bench.NewMonetTriple(wk, rdf.PSO, simio.MachineB())
		if err != nil {
			log.Fatal(err)
		}
		vert, err := bench.NewMonetVert(wk, simio.MachineB())
		if err != nil {
			log.Fatal(err)
		}
		tt, _, err := triple.Measure(q, bench.Cold)
		if err != nil {
			log.Fatal(err)
		}
		vt, _, err := vert.Measure(q, bench.Cold)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12d %14.4f %14.4f\n", len(cat.AllProps), tt.Real.Seconds(), vt.Real.Seconds())
	}
	fmt.Println("\nThe triple-store's cost is set by the (fixed) triple count; the")
	fmt.Println("vertically-partitioned scheme pays per table and degrades as the")
	fmt.Println("schema grows — the data-dependent logical schema the paper warns about.")

}
