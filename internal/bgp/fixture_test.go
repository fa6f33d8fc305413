package bgp_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"blackswan/internal/bgp"
	"blackswan/internal/colstore"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// fixture is a generated Barton-shaped data set loaded into all four
// storage schemes, shared across the package's tests (generation and
// loading dominate the runtime).
type fixture struct {
	ds    *datagen.Dataset
	cat   core.Catalog
	est   *bgp.Estimator
	names []string
	srcs  map[string]core.PhysicalSource
}

var (
	fxOnce sync.Once
	fx     *fixture
	fxErr  error
)

// configs is every executor configuration the oracle is held against: the
// drain configuration, then the pipelined one at batch sizes that put a
// batch boundary inside every operator (1, 2, 5) and inside none (1024).
var configs = []core.ExecOptions{
	{},
	{Streaming: true, BatchRows: 1},
	{Streaming: true, BatchRows: 2},
	{Streaming: true, BatchRows: 5},
	{Streaming: true, BatchRows: 1024},
}

// probeBounds are the licenses the corpora and the fuzzer write onto every
// join of a compiled plan, whatever the compiler chose: never probe, probe
// behind an outer of one row, of up to three (so small outers take the probe
// and the rest the fallback, in one plan), and always. A fixed corpus runs
// query i as compiled and then under probeBounds[i%4]; the fuzzer explores
// the product.
var probeBounds = []int{0, 1, 3, math.MaxInt}

// setProbeMax writes max onto every join of p; the executor ignores it
// where the join is not eligible.
func setProbeMax(p *core.Plan, max int) {
	for _, in := range p.Nodes() {
		if j, ok := in.Node.(*core.Join); ok {
			j.ProbeMax = max
		}
	}
}

// checkConfigs runs root on src in each of the given configurations and
// fails unless each result is the oracle's — in row order under ORDER BY, as
// a bag otherwise — and byte-identical, row order included, to the first
// configuration's. It returns that first (drain) result.
func checkConfigs(t *testing.T, what string, src core.PhysicalSource, root core.Node, cfgs []core.ExecOptions, oracle *rel.Rel, ordered bool) *rel.Rel {
	t.Helper()
	var first *rel.Rel
	for _, opt := range cfgs {
		got, _, _, err := core.ExecutePlan(src, root, opt)
		if err != nil {
			t.Fatalf("%s: %+v: %v", what, opt, err)
		}
		if ordered {
			if got.W != oracle.W || !slices.Equal(got.Data, oracle.Data) {
				t.Fatalf("%s: %+v: ordered result differs from the oracle (%d vs %d rows)", what, opt, got.Len(), oracle.Len())
			}
		} else if !rel.Equal(got, oracle) {
			t.Fatalf("%s: %+v: result differs from the oracle (%d vs %d rows)", what, opt, got.Len(), oracle.Len())
		}
		if first == nil {
			first = got
		}
		if got.W != first.W || !slices.Equal(got.Data, first.Data) {
			t.Fatalf("%s: %+v: rows not byte-identical to the drain configuration's (%d vs %d rows)", what, opt, got.Len(), first.Len())
		}
	}
	return first
}

func newStore() *simio.Store {
	return simio.NewStore(simio.Config{Machine: simio.MachineB(), PoolBytes: 1 << 30})
}

func loadFixture(t *testing.T) *fixture {
	t.Helper()
	fxOnce.Do(func() {
		ds, err := datagen.Generate(datagen.Config{
			Triples: 20_000, Properties: 40, Interesting: 28, Seed: 7,
		})
		if err != nil {
			fxErr = err
			return
		}
		f := &fixture{ds: ds}
		f.cat, fxErr = catalogOf(ds)
		if fxErr != nil {
			return
		}
		f.est = bgp.NewEstimator(ds.Graph, f.cat.Interesting)
		f.srcs, f.names, fxErr = loadSchemes(ds.Graph, f.cat)
		if fxErr == nil {
			fx = f
		}
	})
	if fxErr != nil {
		t.Fatalf("fixture: %v", fxErr)
	}
	return fx
}

func constsOf(ds *datagen.Dataset) core.Constants {
	v := ds.Vocab
	return core.Constants{
		Type: v.Type, Records: v.Records, Origin: v.Origin, Language: v.Language,
		Point: v.Point, Encoding: v.Encoding, Text: v.Text, DLC: v.DLC,
		French: v.French, End: v.End, Conferences: v.Conferences,
	}
}

func catalogOf(ds *datagen.Dataset) (core.Catalog, error) {
	return core.CatalogFromGraph(ds.Graph, constsOf(ds), ds.Interesting)
}

// loadSchemes loads the four storage schemes as physical sources.
func loadSchemes(g *rdf.Graph, cat core.Catalog) (map[string]core.PhysicalSource, []string, error) {
	srcs := map[string]core.PhysicalSource{}
	rt, err := core.LoadRowTriple(rowstore.NewEngine(newStore()), g, cat, rdf.PSO, rdf.AllOrders())
	if err != nil {
		return nil, nil, err
	}
	srcs["rowtriple"] = rt
	rv, err := core.LoadRowVert(rowstore.NewEngine(newStore()), g, cat)
	if err != nil {
		return nil, nil, err
	}
	srcs["rowvert"] = rv
	ct, err := core.LoadColTriple(colstore.NewEngine(newStore()), g, cat, rdf.PSO)
	if err != nil {
		return nil, nil, err
	}
	srcs["coltriple"] = ct
	cv, err := core.LoadColVert(colstore.NewEngine(newStore()), g, cat)
	if err != nil {
		return nil, nil, err
	}
	srcs["colvert"] = cv
	return srcs, []string{"rowtriple", "rowvert", "coltriple", "colvert"}, nil
}
