package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
)

// The mutation path: INSERT DATA / DELETE DATA requests applied as
// transactional commits over the served dataset. Each commit parses the
// update text, folds it into the pending delta under set semantics, builds
// a core.Delta (which validates the merged catalog — a commit that would
// break the roster is rejected whole, with no state change), wraps every
// base target in a fresh DeltaOverlay sharing that one delta, and installs
// the result as a new immutable snapshot version. Readers never block:
// in-flight executions finish on the version they resolved; requests
// arriving after the commit see the new one. When the delta reaches
// CompactEvery entries the commit instead folds base and delta into a full
// graph, rebuilds the physical tables through the Rebuild callback — which
// also recomputes the estimator, so cardinality estimates catch up with
// the mutated data — and installs the rebuilt tables, resetting the delta.
// Either way one ApplyUpdate is exactly one version bump.

// RebuildFunc loads fresh physical tables (all serving targets) and a new
// estimator from a folded graph — the compaction path. The serving layer
// calls it with the merged graph (sharing the live dictionary) and its
// recomputed catalog.
type RebuildFunc func(g *rdf.Graph, cat core.Catalog) (*bgp.Estimator, []Target, error)

// MutatorConfig wires a Mutator over a Service. Graph, Cat, Est and
// Targets must describe the dataset the service currently serves (the same
// values it was built or last rebased with).
type MutatorConfig struct {
	// Graph is the loaded base graph, normalized (SPO-sorted and
	// duplicate-free: visibility binary-searches it); its dictionary is the
	// service's dictionary and grows append-only under inserts.
	Graph *rdf.Graph
	// Cat is the base catalog; its constants and interesting selection are
	// held fixed across mutation (compaction recomputes only the roster).
	Cat core.Catalog
	// Est is the estimator the base targets were loaded with. Overlay
	// commits keep compiling with it unchanged — deliberately: estimates
	// drift as the delta grows, which the workload registry's q-error
	// surface makes observable; plans compiled after a compaction are
	// estimated on the rebuilt statistics.
	Est *bgp.Estimator
	// Targets are the base physical tables the service serves.
	Targets []Target
	// CompactEvery folds the delta into a full rebuild when
	// adds+dels reaches it; 0 never compacts.
	CompactEvery int
	// Rebuild performs compaction loads. Required when CompactEvery > 0.
	Rebuild RebuildFunc
}

// Mutator is a Service's write path. One mutex serializes commits — writes
// are rare and cheap next to loads; concurrency lives on the read side —
// so every commit observes the previous one, giving the strictly
// serialized commit order the snapshot-isolation checker builds on.
//
// The served data set is held once: the normalized base graph (which the
// base targets were loaded from) plus one pending core.Delta, the same
// edit set the installed overlays share.
type Mutator struct {
	s            *Service
	compactEvery int
	rebuild      RebuildFunc

	mu          sync.Mutex
	base        *rdf.Graph
	cat         core.Catalog
	est         *bgp.Estimator
	baseTargets []Target
	baseFreq    map[rdf.ID]int
	delta       *core.Delta
	commits     int
	// faultEvery > 0 injects a stale-overlay fault on every n-th commit:
	// the new version is installed with the previous snapshot's targets, so
	// reads tagged with the new version return the old state — the failure
	// the verify package must catch end-to-end. Test hook only.
	faultEvery int
}

// NewMutator builds the write path over s and registers it, so the HTTP
// front-end starts routing POST /update.
func NewMutator(s *Service, cfg MutatorConfig) (*Mutator, error) {
	if cfg.Graph == nil || cfg.Graph.Dict == nil {
		return nil, fmt.Errorf("serve: mutator needs the loaded base graph")
	}
	if !cfg.Graph.Normalized() {
		return nil, errNotNormalized
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("serve: mutator needs the base targets")
	}
	if cfg.CompactEvery > 0 && cfg.Rebuild == nil {
		return nil, fmt.Errorf("serve: CompactEvery set without a Rebuild callback")
	}
	m := &Mutator{
		s:            s,
		compactEvery: cfg.CompactEvery,
		rebuild:      cfg.Rebuild,
	}
	if err := m.resetBase(cfg.Graph, cfg.Cat, cfg.Est, cfg.Targets); err != nil {
		return nil, err
	}
	s.SetMutator(m)
	return m, nil
}

var errNotNormalized = errors.New("serve: mutator base graph is not normalized (SPO-sorted, duplicate-free)")

// resetBase points the mutator at a fresh base with an empty delta. It
// fails, changing nothing, when the base catalog does not validate. Callers
// hold the mutex (or are the constructor).
func (m *Mutator) resetBase(g *rdf.Graph, cat core.Catalog, est *bgp.Estimator, targets []Target) error {
	freq := rdf.PropFreq(g.Triples)
	d, err := core.NewDelta(cat, freq, nil, nil)
	if err != nil {
		return fmt.Errorf("serve: base catalog: %w", err)
	}
	m.base, m.cat, m.est, m.baseTargets = g, cat, est, targets
	m.baseFreq, m.delta = freq, d
	return nil
}

// UpdateResult is one committed update as reported to the client.
type UpdateResult struct {
	// Version is the dataset version the commit installed; BaseVersion the
	// version it was applied against (its snapshot-isolation read base).
	Version     uint64 `json:"version"`
	BaseVersion uint64 `json:"baseVersion"`
	// Inserted and Deleted count the triples whose visibility actually
	// changed — set semantics: re-inserting a present triple or deleting an
	// absent one is a no-op.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Compacted reports that this commit folded the delta into rebuilt
	// physical tables. Triples is the dataset size after the commit;
	// DeltaAdds/DeltaDels size the overlay it installed (the folded delta,
	// when compacted).
	Compacted bool          `json:"compacted"`
	Triples   int           `json:"triples"`
	DeltaAdds int           `json:"deltaAdds"`
	DeltaDels int           `json:"deltaDels"`
	Latency   time.Duration `json:"latencyNs"`
}

// ApplyUpdate parses and commits one update request (INSERT DATA /
// DELETE DATA blocks separated by ';'). The whole request is one
// transaction: either every block applies and exactly one new version is
// installed, or nothing changes — parse errors and catalog violations
// (deleting the last triple of a special or interesting property) reject
// the commit with the served state untouched.
func (m *Mutator) ApplyUpdate(ctx context.Context, text string) (*UpdateResult, error) {
	start := time.Now()
	ops, err := bgp.ParseUpdate(text)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()

	// edits holds this request's verdicts: each triple it changes maps to
	// whether the triple is visible after it. Every other triple keeps the
	// pending delta's verdict over the base.
	edits := map[rdf.Triple]bool{}
	visible := func(t rdf.Triple) bool {
		if v, ok := edits[t]; ok {
			return v
		}
		return m.delta.Added(t) || m.base.Has(t) && !m.delta.Deleted(t)
	}
	// An inserted term the dictionary lacks is lent the ID interning will give
	// it once the delta validates, so a rejected update leaves the dictionary
	// as it was; a deleted term neither known nor lent resolves to nothing.
	dict := m.base.Dict
	lent := map[rdf.Term]rdf.ID{}
	var order []rdf.Term
	resolve := func(gt bgp.GroundTriple, lend bool) (rdf.Triple, bool) {
		var ids [3]rdf.ID
		for i, term := range [3]rdf.Term{gt.S, gt.P, gt.O} {
			id, ok := dict.Lookup(term)
			if !ok {
				id, ok = lent[term]
			}
			if !ok {
				if !lend {
					return rdf.Triple{}, false
				}
				order = append(order, term)
				id = rdf.ID(dict.Len() + len(order))
				lent[term] = id
			}
			ids[i] = id
		}
		return rdf.Triple{S: ids[0], P: ids[1], O: ids[2]}, true
	}
	inserted, deleted := 0, 0
	for _, op := range ops {
		for _, gt := range op.Triples {
			// A deleted triple with a never-seen term cannot be in the
			// dataset; deleting it is a no-op and must not grow the dictionary.
			t, ok := resolve(gt, op.Insert)
			if !ok || visible(t) == op.Insert {
				continue
			}
			edits[t] = op.Insert
			if op.Insert {
				inserted++
			} else {
				deleted++
			}
		}
	}
	// Fold the verdicts into the pending delta: a changed triple is an
	// addition when visible and absent from the base, a tombstone when
	// hidden and present in it — so adds ∩ base = ∅ and dels ⊆ base.
	var adds, dels []rdf.Triple
	for _, t := range m.delta.Adds() {
		if _, ok := edits[t]; !ok {
			adds = append(adds, t)
		}
	}
	for _, t := range m.delta.Dels() {
		if _, ok := edits[t]; !ok {
			dels = append(dels, t)
		}
	}
	for t, v := range edits {
		if inBase := m.base.Has(t); v && !inBase {
			adds = append(adds, t)
		} else if !v && inBase {
			dels = append(dels, t)
		}
	}

	// Validate the merged catalog before anything is installed: a rejected
	// delta aborts the commit with no state change.
	d, err := core.NewDelta(m.cat, m.baseFreq, adds, dels)
	if err != nil {
		return nil, fmt.Errorf("serve: update rejected: %w", err)
	}
	// Valid: intern the lent terms. Commits serialize on m.mu, so each takes
	// its lent identifier — else something interned outside the write path.
	for _, t := range order {
		if dict.Intern(t) != lent[t] {
			return nil, fmt.Errorf("serve: commit failed before install: %s interned outside the write path", t)
		}
	}
	total := len(m.base.Triples) - len(dels) + len(adds)

	fault := m.faultEvery > 0 && (m.commits+1)%m.faultEvery == 0
	compact := !fault && m.compactEvery > 0 && len(adds)+len(dels) >= m.compactEvery

	prev := m.s.snap.Load()
	var sn *snapshot
	switch {
	case fault:
		// Stale-overlay fault injection: install a new version whose targets
		// are the previous snapshot's — reads claiming the new version will
		// return the old state, which the SI checker must flag.
		sn, err = newSnapshot(prev.dict, prev.est, m.s.cfg.CacheSize, prev.targets)
	case compact:
		merged := rdf.ApplyDelta(m.base, adds, dels)
		var cat core.Catalog
		var est *bgp.Estimator
		var rebuilt []Target
		cat, err = core.CatalogFromGraph(merged, m.cat.Consts, m.cat.Interesting)
		if err == nil {
			est, rebuilt, err = m.rebuild(merged, cat)
		}
		if err == nil {
			sn, err = newSnapshot(merged.Dict, est, m.s.cfg.CacheSize, rebuilt)
		}
		if err == nil {
			err = m.resetBase(merged, cat, est, rebuilt)
		}
	default:
		overlaid := make([]Target, len(m.baseTargets))
		for i, t := range m.baseTargets {
			overlaid[i] = Target{Name: t.Name, Src: core.NewDeltaOverlay(t.Src, d)}
		}
		sn, err = newSnapshot(m.base.Dict, m.est, m.s.cfg.CacheSize, overlaid)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: commit failed before install: %w", err)
	}
	// The dictionary only grows across commits, so compiled plans stay
	// valid; sharing the previous snapshot's plan cache keeps the serving
	// fast path warm across versions. (Rebase installs a fresh cache — a
	// reload may bring a new dictionary.)
	sn.cache = prev.cache

	kind := VersionCommit
	if compact {
		kind = VersionCompaction
	}
	base, version := m.s.installSnapshot(sn, VersionEntry{
		Kind:      kind,
		Triples:   total,
		DeltaAdds: len(adds),
		DeltaDels: len(dels),
	})
	m.s.metrics.committed()
	if compact {
		m.s.metrics.compacted()
	} else {
		m.delta = d
	}
	m.commits++

	m.s.log.LogAttrs(ctx, slog.LevelInfo, "update committed",
		slog.Uint64("version", version),
		slog.Uint64("base", base),
		slog.Int("inserted", inserted),
		slog.Int("deleted", deleted),
		slog.Bool("compacted", compact),
		slog.Int("deltaAdds", len(adds)),
		slog.Int("deltaDels", len(dels)),
		slog.Int("triples", total))

	return &UpdateResult{
		Version:     version,
		BaseVersion: base,
		Inserted:    inserted,
		Deleted:     deleted,
		Compacted:   compact,
		Triples:     total,
		DeltaAdds:   len(adds),
		DeltaDels:   len(dels),
		Latency:     time.Since(start),
	}, nil
}

// Rebase replaces the mutator's base dataset and installs it — the
// mutation-aware reload. It serializes with commits, so a reload under
// write traffic is just another version in the total order; the pending
// delta is discarded with the dataset it applied to. The snapshot gets a
// fresh plan cache: a reload may carry a new dictionary.
func (m *Mutator) Rebase(g *rdf.Graph, cat core.Catalog, est *bgp.Estimator, targets []Target) error {
	if g == nil || g.Dict == nil {
		return fmt.Errorf("serve: rebase needs a loaded graph")
	}
	if !g.Normalized() {
		return errNotNormalized
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	sn, err := newSnapshot(g.Dict, est, m.s.cfg.CacheSize, targets)
	if err != nil {
		return err
	}
	if err := m.resetBase(g, cat, est, targets); err != nil {
		return err
	}
	_, v := m.s.installSnapshot(sn, VersionEntry{Kind: VersionReload, Triples: len(g.Triples)})
	m.s.metrics.swapped()
	m.s.log.LogAttrs(context.Background(), slog.LevelInfo, "dataset rebased",
		slog.Uint64("version", v),
		slog.Int("targets", len(targets)),
		slog.Int("triples", len(g.Triples)))
	return nil
}

// SetFaultEvery arms stale-overlay fault injection: every n-th commit
// installs its new version with the previous snapshot's targets. 0 disarms.
// Exists so the mutation hammer can prove the SI checker catches a real
// serving bug end-to-end; never set it outside tests.
func (m *Mutator) SetFaultEvery(n int) {
	m.mu.Lock()
	m.faultEvery = n
	m.mu.Unlock()
}

// Delta returns the pending overlay's size.
func (m *Mutator) Delta() (adds, dels int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delta.Size()
}

// Materialize folds base and pending delta into a standalone graph (sharing
// the live dictionary) with its recomputed catalog — the from-scratch state
// the overlay must be byte-equivalent to, used by the equivalence guards.
func (m *Mutator) Materialize() (*rdf.Graph, core.Catalog, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	merged := rdf.ApplyDelta(m.base, m.delta.Adds(), m.delta.Dels())
	cat, err := core.CatalogFromGraph(merged, m.cat.Consts, m.cat.Interesting)
	if err != nil {
		return nil, core.Catalog{}, err
	}
	return merged, cat, nil
}
