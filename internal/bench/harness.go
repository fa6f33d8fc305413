// Package bench implements the paper's benchmark conventions (Section 2.3)
// and the drivers that regenerate every table and figure of the evaluation:
// cold and hot runs, real and user time, 3-run averaging, geometric means,
// and the experiment grids of Sections 3 and 4.
package bench

import (
	"fmt"
	"math"
	"sync"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/colstore"
	"blackswan/internal/core"
	"blackswan/internal/datagen"
	"blackswan/internal/rdf"
	"blackswan/internal/rel"
	"blackswan/internal/rowstore"
	"blackswan/internal/simio"
)

// Timing is one measured query execution, split per Section 2.3: Real is
// wall-clock on the server (CPU plus I/O stalls), User is CPU time only.
type Timing struct {
	Real, User time.Duration
}

// Seconds returns both components as float seconds.
func (t Timing) Seconds() (real, user float64) {
	return t.Real.Seconds(), t.User.Seconds()
}

// Mode selects the run protocol of Section 2.3.
type Mode int

const (
	// Cold: before every measured run the DBMS is "restarted" and all
	// caches dropped, so no benchmark-relevant data is in memory.
	Cold Mode = iota
	// Hot: one unmeasured warm-up run, then measured runs with the buffer
	// pool left intact.
	Hot
)

// String names the mode.
func (m Mode) String() string {
	if m == Cold {
		return "cold"
	}
	return "hot"
}

// MeasuredRuns is the number of averaged runs per query, as in the paper
// ("each query is run 3 times and we report the average time").
const MeasuredRuns = 3

// System is one benchmarkable configuration: a loaded database plus the
// simulated store that controls its cache state and clock.
type System struct {
	Name  string
	Store *simio.Store
	DB    core.Database
	// Queries lists what the system can answer (C-Store runs only the
	// original 7); nil means the full benchmark.
	Queries []core.Query
}

// Supports reports whether the system can run q.
func (s *System) Supports(q core.Query) bool {
	if s.Queries == nil {
		return true
	}
	for _, x := range s.Queries {
		if x == q {
			return true
		}
	}
	return false
}

// Measure runs q under the given mode and returns the averaged timing and
// the result of the last run.
func (s *System) Measure(q core.Query, mode Mode) (Timing, *rel.Rel, error) {
	t, res, err := s.measureRuns(func() (*rel.Rel, error) { return s.DB.Run(q) }, mode)
	if err != nil {
		return Timing{}, nil, fmt.Errorf("bench: %s %v: %w", s.Name, q, err)
	}
	return t, res, nil
}

// measureRuns applies the Section 2.3 protocol to one run closure: a
// warm-up on hot runs, caches dropped before every cold run, MeasuredRuns
// measured executions averaged. Both the benchmark queries (Measure) and
// compiled BGP plans (MeasurePlan) measure through this path.
func (s *System) measureRuns(run func() (*rel.Rel, error), mode Mode) (Timing, *rel.Rel, error) {
	var sumReal, sumUser time.Duration
	var last *rel.Rel
	if mode == Hot {
		// Warm-up run, not measured.
		s.Store.DropCaches()
		s.Store.Clock().Reset()
		if _, err := run(); err != nil {
			return Timing{}, nil, fmt.Errorf("warmup: %w", err)
		}
	}
	for i := 0; i < MeasuredRuns; i++ {
		if mode == Cold {
			s.Store.DropCaches()
		}
		s.Store.Clock().Reset()
		res, err := run()
		if err != nil {
			return Timing{}, nil, err
		}
		sumReal += s.Store.Clock().Real()
		sumUser += s.Store.Clock().User()
		last = res
	}
	return Timing{Real: sumReal / MeasuredRuns, User: sumUser / MeasuredRuns}, last, nil
}

// GeoMean returns the geometric mean of positive values; zero entries are
// clamped to one millisecond to keep the mean defined, mirroring the
// paper's second-resolution reporting.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v < 1e-3 {
			v = 1e-3
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// BartonTriples is the size of the original Barton data set; the seek-
// latency scale factor of a workload is its triple count relative to this.
const BartonTriples = 50_255_599

// Workload bundles a generated data set with its derived query catalog.
type Workload struct {
	DS  *datagen.Dataset
	Cat core.Catalog

	estOnce sync.Once
	est     *bgp.Estimator
}

// Estimator returns the workload's BGP cost estimator (rdf.Stats plus
// per-property cardinalities), computed once per workload — building it
// costs two full-graph scans, and every consumer (compiler, serving
// layer, experiments) wants the same one.
func (w *Workload) Estimator() *bgp.Estimator {
	w.estOnce.Do(func() {
		w.est = bgp.NewEstimator(w.DS.Graph, w.Cat.Interesting)
	})
	return w.est
}

// machine adapts a hardware profile to the workload's scale (see
// simio.Machine.ScaleSeek for the rationale).
func (w *Workload) machine(m simio.Machine) simio.Machine {
	return m.ScaleSeek(float64(w.DS.Graph.Len()) / BartonTriples)
}

// NewWorkload generates data and derives the catalog.
func NewWorkload(cfg datagen.Config) (*Workload, error) {
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	cat, err := CatalogOf(ds)
	if err != nil {
		return nil, err
	}
	return &Workload{DS: ds, Cat: cat}, nil
}

// CatalogOf derives the core catalog from a generated data set.
func CatalogOf(ds *datagen.Dataset) (core.Catalog, error) {
	v := ds.Vocab
	consts := core.Constants{
		Type: v.Type, Records: v.Records, Origin: v.Origin, Language: v.Language,
		Point: v.Point, Encoding: v.Encoding, Text: v.Text, DLC: v.DLC,
		French: v.French, End: v.End, Conferences: v.Conferences,
	}
	return core.CatalogFromGraph(ds.Graph, consts, ds.Interesting)
}

// Pool sizing: DBX and MonetDB get memory that holds the working set ("in
// both machines the data fits in memory during hot runs"); the C-Store
// profile gets a restrictive buffer, reproducing its repeated reads.
func bigPool() int64 { return 8 << 30 }

func cstorePool(triples int) int64 {
	p := int64(triples) * 3 // ≈1/8 of the 24-byte encoded triple size
	if p < 1<<18 {
		p = 1 << 18
	}
	return p
}

// NewDBXTriple builds the row-store triple-store system. The SPO variant
// carries the original study's two unclustered indices (POS, OSP); the PSO
// variant carries all five other permutations, as in Section 4.1.
func NewDBXTriple(w *Workload, cluster rdf.Order, m simio.Machine) (*System, error) {
	store := simio.NewStore(simio.Config{Machine: w.machine(m), PoolBytes: bigPool()})
	eng := rowstore.NewEngine(store)
	var secs []rdf.Order
	if cluster == rdf.SPO {
		secs = []rdf.Order{rdf.POS, rdf.OSP}
	} else {
		secs = rdf.AllOrders()
	}
	db, err := core.LoadRowTriple(eng, w.DS.Graph, w.Cat, cluster, secs)
	if err != nil {
		return nil, err
	}
	return &System{Name: "DBX triple " + cluster.String(), Store: store, DB: db}, nil
}

// NewDBXVert builds the row-store vertically-partitioned system (SO
// clustered, OS unclustered per table).
func NewDBXVert(w *Workload, m simio.Machine) (*System, error) {
	store := simio.NewStore(simio.Config{Machine: w.machine(m), PoolBytes: bigPool()})
	eng := rowstore.NewEngine(store)
	db, err := core.LoadRowVert(eng, w.DS.Graph, w.Cat)
	if err != nil {
		return nil, err
	}
	return &System{Name: "DBX vert SO", Store: store, DB: db}, nil
}

// NewMonetTriple builds the column-store triple-store system.
func NewMonetTriple(w *Workload, cluster rdf.Order, m simio.Machine) (*System, error) {
	store := simio.NewStore(simio.Config{Machine: w.machine(m), PoolBytes: bigPool()})
	eng := colstore.NewEngine(store)
	db, err := core.LoadColTriple(eng, w.DS.Graph, w.Cat, cluster)
	if err != nil {
		return nil, err
	}
	return &System{Name: "MonetDB triple " + cluster.String(), Store: store, DB: db}, nil
}

// NewMonetVert builds the column-store vertically-partitioned system.
func NewMonetVert(w *Workload, m simio.Machine) (*System, error) {
	store := simio.NewStore(simio.Config{Machine: w.machine(m), PoolBytes: bigPool()})
	eng := colstore.NewEngine(store)
	db, err := core.LoadColVert(eng, w.DS.Graph, w.Cat)
	if err != nil {
		return nil, err
	}
	return &System{Name: "MonetDB vert SO", Store: store, DB: db}, nil
}

// NewCStore builds the C-Store redo configuration of Section 3: the
// vertically-partitioned scheme restricted to the 28 interesting properties,
// synchronous page-at-a-time I/O, and a restrictive buffer pool. It answers
// only the original 7 queries.
func NewCStore(w *Workload, m simio.Machine) (*System, error) {
	store := simio.NewStore(simio.Config{
		Machine:   w.machine(m),
		PoolBytes: cstorePool(w.DS.Graph.Len()),
		PageSize:  4096, // BerkeleyDB-style pages
	})
	eng := colstore.NewEngine(store)
	eng.PageAtATime = true
	db, err := core.LoadColVertRestricted(eng, w.DS.Graph, w.Cat)
	if err != nil {
		return nil, err
	}
	return &System{
		Name: "C-Store vert SO", Store: store, DB: db,
		Queries: core.OriginalQueries(),
	}, nil
}
