package bgp_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
)

var updateGolden = flag.Bool("update", false, "rewrite golden plan files")

// goldenQueries are the representative queries whose plans TestGoldenPlans
// pins, over the seeded fixture data set.
var goldenQueries = []struct {
	name, text string
}{
	{
		// The selective origin pattern must drive the join order; the
		// OPTIONAL stays above the whole required tree even though its
		// pattern is more selective than the required ones.
		"optional_after_required",
		`SELECT * WHERE { ?s <` + datagen.TypeIRI + `> ?t . ?s <` + datagen.RecordsIRI + `> ?r .
		   OPTIONAL { ?s <` + datagen.PointInTimeIRI + `> ?y } }`,
	},
	{
		// Range filter folded onto its leaf, below the join.
		"range_pushed_to_leaf",
		`SELECT ?s ?y WHERE { ?s <` + datagen.TypeIRI + `> ?t . ?s <` + datagen.PointInTimeIRI + `> ?y .
		   FILTER (?y >= 1900) . FILTER (?y < 1950) }`,
	},
	{
		// ORDER BY + LIMIT compiles to one TopN above the projection;
		// the count key is marked numeric.
		"topn_over_group",
		`SELECT ?t (COUNT AS ?n) WHERE { ?s <` + datagen.TypeIRI + `> ?t } GROUP BY ?t ORDER BY ?n DESC ?t LIMIT 5`,
	},
	{
		// Everything at once: optional with an inner range filter,
		// distinct, ordering.
		"mixed_constructs",
		`SELECT DISTINCT * WHERE { ?s <` + datagen.TypeIRI + `> ?t .
		   OPTIONAL { ?s <` + datagen.PointInTimeIRI + `> ?y . FILTER (?y > 1850) } }
		 ORDER BY ?y DESC ?s LIMIT 10`,
	},
}

// TestGoldenPlans pins the canonical plan trees of representative queries
// over the seeded fixture data set. The serialized trees live in
// testdata/plans/*.golden; a join-order or operator-placement regression
// shows up as a readable diff. Regenerate intentionally with
//
//	go test ./internal/bgp -run TestGoldenPlans -update
func TestGoldenPlans(t *testing.T) {
	f := loadFixture(t)
	dict := f.ds.Graph.Dict
	term := func(id rdf.ID) string { return dict.Term(id).String() }

	for _, tc := range goldenQueries {
		t.Run(tc.name, func(t *testing.T) {
			compiled, err := bgp.CompileText(tc.text, dict, f.est)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			got := "query: " + bgp.CanonicalText(tc.text) + "\n\n" + core.FormatPlan(compiled.Root, term)
			path := filepath.Join("testdata", "plans", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("plan drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
