package core

import (
	"fmt"
	"sort"

	"blackswan/internal/rdf"
	"blackswan/internal/rel"
)

// This file is the delta-overlay layer of live mutation: an immutable set
// of added and deleted triples (Delta) stacked over any loaded scheme
// (DeltaOverlay), so a commit installs a new logical snapshot without
// rebuilding the physical tables. Scans merge the base minus tombstones
// with the additions; per-property results keep the (s, o)-lexicographic
// order the SO-clustered schemes guarantee, so merge joins still fire on
// the overlay. Periodic compaction (driven by the serving layer) folds an
// overlay back into freshly built tables through the bulk-ingest pipeline.

// Delta is one immutable edit set over a base snapshot: triples added and
// triples deleted (tombstones). Construction fixes the merged catalog, so
// an edit that would invalidate it — deleting every triple of a special or
// interesting property — is rejected before anything is installed.
//
// Invariants the caller must uphold (the serving layer's mutator does):
// adds ∩ base = ∅, dels ⊆ base, adds ∩ dels = ∅. Identifiers must come
// from the base dictionary, which grows append-only, so an overlay and its
// base share one Dict.
type Delta struct {
	// adds is sorted PSO, so the slice decomposes into per-property runs
	// that are (s, o)-lexicographic — ready to merge into ordered scans.
	adds     []rdf.Triple
	addRange map[rdf.ID][2]int
	dels     map[rdf.Triple]struct{}
	// cat is the merged catalog: AllProps is the frequency-ranked roster
	// of (base ∪ adds ∖ dels), exactly what CatalogFromGraph would compute
	// over the folded graph.
	cat  Catalog
	live map[rdf.ID]bool
}

// NewDelta builds the edit set and the merged catalog. baseFreq is the
// per-property triple count of the base snapshot (rdf.Stats.PropFreq);
// baseCat supplies the constants and the interesting selection, which are
// held fixed across mutation. It fails — and the commit must be abandoned
// — when the merged catalog does not validate.
func NewDelta(baseCat Catalog, baseFreq map[rdf.ID]int, adds, dels []rdf.Triple) (*Delta, error) {
	d := &Delta{
		adds: append([]rdf.Triple(nil), adds...),
		dels: make(map[rdf.Triple]struct{}, len(dels)),
	}
	rdf.PSO.Sort(d.adds)
	d.adds = rdf.Dedup(d.adds)
	d.addRange = make(map[rdf.ID][2]int)
	for i := 0; i < len(d.adds); {
		j := i
		for j < len(d.adds) && d.adds[j].P == d.adds[i].P {
			j++
		}
		d.addRange[d.adds[i].P] = [2]int{i, j}
		i = j
	}
	for _, t := range dels {
		d.dels[t] = struct{}{}
	}

	merged := make(map[rdf.ID]int, len(baseFreq))
	for p, n := range baseFreq {
		merged[p] = n
	}
	for _, t := range d.adds {
		merged[t.P]++
	}
	for t := range d.dels {
		merged[t.P]--
	}
	for p, n := range merged {
		if n <= 0 {
			delete(merged, p)
		}
	}
	d.cat = Catalog{
		Consts:      baseCat.Consts,
		AllProps:    rdf.TopK(merged, len(merged)),
		Interesting: baseCat.Interesting,
	}
	if err := d.cat.Validate(); err != nil {
		return nil, fmt.Errorf("core: delta rejected: %w", err)
	}
	d.live = make(map[rdf.ID]bool, len(d.cat.AllProps))
	for _, p := range d.cat.AllProps {
		d.live[p] = true
	}
	return d, nil
}

// Adds returns the additions, sorted PSO. Callers must not mutate it.
func (d *Delta) Adds() []rdf.Triple { return d.adds }

// Dels returns the tombstones in unspecified order.
func (d *Delta) Dels() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(d.dels))
	for t := range d.dels {
		out = append(out, t)
	}
	rdf.SPO.Sort(out)
	return out
}

// Size returns the number of additions and tombstones.
func (d *Delta) Size() (adds, dels int) { return len(d.adds), len(d.dels) }

// Catalog returns the merged catalog of (base ∪ adds ∖ dels).
func (d *Delta) Catalog() Catalog { return d.cat }

// Added reports whether t is one of the additions: a binary search of
// its subject's run under its property.
func (d *Delta) Added(t rdf.Triple) bool {
	run := d.addRun(t.P, t.S)
	i := sort.Search(len(run), func(i int) bool { return run[i].O >= t.O })
	return i < len(run) && run[i].O == t.O
}

// Deleted reports whether t is tombstoned.
func (d *Delta) Deleted(t rdf.Triple) bool {
	_, ok := d.dels[t]
	return ok
}

// maskMode captures how a base scheme applies the projection-pushdown
// mask, so an overlay's merged rows are byte-identical to the rows a
// from-scratch rebuild of the same scheme would emit. Row stores read
// whole tuples and never mask; the column triple-store zeroes every
// undemanded column; the column vertical scheme materializes the property
// from its table roster, so P stays real while S and O honour the mask.
type maskMode uint8

const (
	maskNone maskMode = iota
	maskSPO           // *ColTriple: every column honours the mask
	maskSO            // *ColVert: P is always real, S and O honour the mask
)

func maskModeOf(src PhysicalSource) maskMode {
	switch src.(type) {
	case *ColTriple:
		return maskSPO
	case *ColVert:
		return maskSO
	default:
		return maskNone
	}
}

// DeltaOverlay layers a Delta over a loaded scheme behind the same
// PhysicalSource interface, so the executor — and the serving layer's
// snapshot targets — cannot tell an overlay from a rebuilt scheme. Reads are wait-free: both halves are immutable.
type DeltaOverlay struct {
	base PhysicalSource
	d    *Delta
	mask maskMode
}

// NewDeltaOverlay wraps base with the edit set d. Overlays do not stack:
// the serving layer folds successive commits into one Delta over the same
// physical base until compaction.
func NewDeltaOverlay(base PhysicalSource, d *Delta) *DeltaOverlay {
	return &DeltaOverlay{base: base, d: d, mask: maskModeOf(base)}
}

// Base returns the wrapped scheme.
func (o *DeltaOverlay) Base() PhysicalSource { return o.base }

// Delta returns the edit set.
func (o *DeltaOverlay) Delta() *Delta { return o.d }

// Label identifies the overlay for diagnostics.
func (o *DeltaOverlay) Label() string {
	type labeled interface{ Label() string }
	if l, ok := o.base.(labeled); ok {
		return l.Label() + "+delta"
	}
	return "overlay+delta"
}

// Cat implements PhysicalSource with the merged catalog.
func (o *DeltaOverlay) Cat() Catalog { return o.d.cat }

// Props implements PhysicalSource: the merged frequency-ranked roster.
func (o *DeltaOverlay) Props() []rdf.ID { return o.d.cat.AllProps }

// PropOrdered implements PhysicalSource: merging preserves the base's
// (s, o)-lexicographic per-property order, so the guarantee carries over.
func (o *DeltaOverlay) PropOrdered() bool { return o.base.PropOrdered() }

// PropSeekable implements PhysicalSource: an overlay lowers as its rebuild.
func (o *DeltaOverlay) PropSeekable() bool { return o.base.PropSeekable() }

// Partitioned implements PhysicalSource.
func (o *DeltaOverlay) Partitioned() bool { return o.base.Partitioned() }

// Ops implements PhysicalSource.
func (o *DeltaOverlay) Ops() PhysicalOps { return o.base.Ops() }

// addRun returns the additions under p, narrowed to a bound subject's by
// binary search of the (s, o)-sorted run: a probe costs O(log adds).
func (d *Delta) addRun(p, s rdf.ID) []rdf.Triple {
	r := d.addRange[p]
	run := d.adds[r[0]:r[1]]
	if s != rdf.NoID {
		lo := sort.Search(len(run), func(i int) bool { return run[i].S >= s })
		run = run[lo : lo+sort.Search(len(run)-lo, func(i int) bool { return run[lo+i].S > s })]
	}
	return run
}

// addsForProp collects the additions under p matching the bounds, as
// (s, o) pairs in (s, o)-lexicographic order.
func (o *DeltaOverlay) addsForProp(p, s, obj rdf.ID) [][2]uint64 {
	var out [][2]uint64
	for _, t := range o.d.addRun(p, s) {
		if obj == rdf.NoID || t.O == obj {
			out = append(out, [2]uint64{uint64(t.S), uint64(t.O)})
		}
	}
	return out
}

// maskSORows zeroes the undemanded columns of a width-2 (s, o) relation in
// place, matching what a rebuilt column scheme would have materialized.
func (o *DeltaOverlay) maskSORows(r *rel.Rel, need ScanCols) *rel.Rel {
	if o.mask == maskNone || (need.S && need.O) {
		return r
	}
	for i, n := 0, r.Len(); i < n; i++ {
		row := r.Row(i)
		if !need.S {
			row[0] = 0
		}
		if !need.O {
			row[1] = 0
		}
	}
	return r
}

// maskTripleRows zeroes the undemanded columns of a width-3 (s, p, o)
// relation in place per the base's masking mode.
func (o *DeltaOverlay) maskTripleRows(r *rel.Rel, need ScanCols) *rel.Rel {
	if o.mask == maskNone {
		return r
	}
	zp := o.mask == maskSPO && !need.P
	if need.S && need.O && !zp {
		return r
	}
	for i, n := 0, r.Len(); i < n; i++ {
		row := r.Row(i)
		if !need.S {
			row[0] = 0
		}
		if zp {
			row[1] = 0
		}
		if !need.O {
			row[2] = 0
		}
	}
	return r
}

// ScanProp implements PhysicalSource: StreamProp, collected.
func (o *DeltaOverlay) ScanProp(p, s, obj rdf.ID, need ScanCols) (*rel.Rel, error) {
	return collectProp(o, p, s, obj, need)
}

// StreamProp implements PhysicalSource over the merged data: base rows
// minus tombstones, linearly merged with the additions — so a base whose
// rows arrive (s, o)-ordered (all four schemes, under every bound
// combination) stays ordered, the invariant merge joins rely on — then
// masked as the base engine's projection pushdown would. The base iterator
// is pulled lazily, so early termination (TopN, LIMIT) stops the underlying
// scan.
func (o *DeltaOverlay) StreamProp(p, s, obj rdf.ID, need ScanCols, batchRows int) (RelIter, error) {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	if !o.d.live[p] && o.base.Partitioned() {
		// A property with no surviving triples has no table in a rebuilt
		// partitioned scheme; answer the same way.
		return nil, fmt.Errorf("core: property %d not loaded in %s", p, o.Label())
	}
	adds := o.addsForProp(p, s, obj)
	base, err := o.base.StreamProp(p, s, obj, AllScanCols(), batchRows)
	if err != nil {
		// Delta-only property: the base has no table yet. The additions
		// alone are the scan.
		base = &chunkRelIter{rel: rel.New(2), batch: batchRows}
	}
	return &overlayPropIter{o: o, p: p, base: base, adds: adds, need: need, batch: batchRows, out: rel.Rel{W: 2}}, nil
}

// StreamTriples implements PhysicalSource: the base stream minus tombstones,
// then the additions, masked per the base's mode. No consumer depends on
// unbound-property order (PropOrdered speaks only for StreamProp), so a
// plain concatenation suffices.
func (o *DeltaOverlay) StreamTriples(s, obj rdf.ID, need ScanCols, batchRows int) RelIter {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	base := o.base.StreamTriples(s, obj, AllScanCols(), batchRows)
	// The matching additions are this scan's own rows: masked once here,
	// they replay as views after the base.
	adds := rel.New(3)
	for _, t := range o.d.adds {
		if (s == rdf.NoID || t.S == s) && (obj == rdf.NoID || t.O == obj) {
			adds.Data = append(adds.Data, uint64(t.S), uint64(t.P), uint64(t.O))
		}
	}
	tail := &chunkRelIter{rel: o.maskTripleRows(adds, need), batch: batchRows}
	return &overlayTripleIter{o: o, base: base, tail: tail, need: need, out: rel.Rel{W: 3}}
}

// overlayPropIter merges a tombstone-filtered base property stream with
// the (already (s, o)-ordered) additions, one batch at a time.
type overlayPropIter struct {
	o     *DeltaOverlay
	p     rdf.ID
	base  RelIter
	buf   *rel.Rel // current base batch (real values), read from bi on
	bi    int
	done  bool // base exhausted
	adds  [][2]uint64
	ai    int
	need  ScanCols
	batch int
	out   rel.Rel
}

func (it *overlayPropIter) Next() (*rel.Rel, error) {
	out := &it.out
	reuse(out)
	for out.Len() < it.batch {
		if !it.done && (it.buf == nil || it.bi == it.buf.Len()) {
			b, err := it.base.Next()
			if err != nil {
				return nil, err
			}
			it.buf, it.bi, it.done = b, 0, b == nil
			continue
		}
		add := it.ai < len(it.adds)
		if !it.done {
			row := it.buf.Row(it.bi)
			if it.o.d.Deleted(rdf.Triple{S: rdf.ID(row[0]), P: it.p, O: rdf.ID(row[1])}) {
				it.bi++
				continue
			}
			if !add || row[0] < it.adds[it.ai][0] ||
				(row[0] == it.adds[it.ai][0] && row[1] < it.adds[it.ai][1]) {
				out.Data = append(out.Data, row[0], row[1])
				it.bi++
				continue
			}
		}
		if !add {
			break
		}
		out.Data = append(out.Data, it.adds[it.ai][0], it.adds[it.ai][1])
		it.ai++
	}
	if out.Len() == 0 {
		return nil, nil
	}
	return it.o.maskSORows(out, it.need), nil
}

func (it *overlayPropIter) Close() { it.base.Close() }

// overlayTripleIter filters tombstones out of the base triple stream and
// appends the additions once the base is exhausted.
type overlayTripleIter struct {
	o    *DeltaOverlay
	base RelIter
	done bool
	tail *chunkRelIter // the matching additions, already masked
	need ScanCols
	out  rel.Rel
}

func (it *overlayTripleIter) Next() (*rel.Rel, error) {
	for !it.done {
		b, err := it.base.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			it.done = true
			break
		}
		out := &it.out
		reuse(out)
		for i, n := 0, b.Len(); i < n; i++ {
			row := b.Row(i)
			if it.o.d.Deleted(rdf.Triple{S: rdf.ID(row[0]), P: rdf.ID(row[1]), O: rdf.ID(row[2])}) {
				continue
			}
			out.Data = append(out.Data, row[0], row[1], row[2])
		}
		if out.Len() > 0 {
			return it.o.maskTripleRows(out, it.need), nil
		}
	}
	return it.tail.Next()
}

func (it *overlayTripleIter) Close() { it.base.Close() }
