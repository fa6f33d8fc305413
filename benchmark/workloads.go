package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/rdf"
)

// op is one request of a workload. A query carries the reference its
// response must match; an update carries its form body.
type op struct {
	update bool
	cell   int // index into workload.cells; -1 for updates
	// text is the query or update text and system the target scheme: what
	// the staged run hands to the layers directly. url (queries) and form
	// (updates) are the same request as the handler receives it.
	text   string
	system string
	url    *url.URL
	form   string
	// changes is the number of triples an update must report as inserted or
	// deleted.
	changes int
	ref     *reference
}

// reference is what a query must return: the row count and a hash of the
// decoded rows — order-insensitive unless the query has ORDER BY.
type reference struct {
	rows    int
	hash    rowsHash
	ordered bool
}

// rowsHash summarizes decoded rows two ways: bag is independent of row
// order (the schemes return bags), seq depends on it (ORDER BY pins it).
type rowsHash struct{ bag, seq uint64 }

func hashRows(rows [][]*string) rowsHash {
	var h rowsHash
	for _, row := range rows {
		f := fnv.New64a()
		for _, c := range row {
			if c == nil {
				f.Write([]byte{0})
				continue
			}
			f.Write([]byte{1})
			f.Write([]byte(*c))
			f.Write([]byte{0xff})
		}
		r := f.Sum64()
		// Finalize before summing so that related rows do not cancel.
		r ^= r >> 33
		r *= 0xff51afd7ed558ccd
		r ^= r >> 33
		h.bag += r
		h.seq = h.seq*1099511628211 + r
	}
	return h
}

func (r *reference) matches(rows [][]*string) bool {
	if len(rows) != r.rows {
		return false
	}
	h := hashRows(rows)
	if r.ordered {
		return h.seq == r.hash.seq
	}
	return h.bag == r.hash.bag
}

// workload is a generated op stream. lanes(r) returns round r's ops: one
// lane that all clients pull from (read-only workloads — the ops are
// independent, and every round replays the same sequence), or one lane per
// client (mixed-rw — a lane is a session whose reads depend on its own
// earlier commits). Round -1 is the warm-up.
type workload struct {
	name  string
	cells []string
	// texts are the distinct query texts with a static reference; refs[i]
	// belongs to texts[i] and is filled by computeRefs.
	texts []string
	refs  []*reference
	lanes func(round int) [][]op
	// simTexts are the texts whose compiled plans form the simulated-clock
	// cells (unused by paper-analytic, whose cells are the paper's grid).
	simTexts []string
	// probeOps are read-only ops with static references: what the traced
	// run's loopback and write probes replay beside the staged ops.
	probeOps []op
	// mixed is the write-side state of mixed-rw, nil otherwise.
	mixed *mixedState
}

// setTexts installs the distinct texts and allocates their reference slots;
// ops point at the slots, which computeRefs fills later.
func (w *workload) setTexts(texts []string) {
	w.texts = texts
	w.refs = make([]*reference, len(texts))
	for i := range w.refs {
		w.refs[i] = &reference{}
	}
}

func queryURL(text, system string) *url.URL {
	return &url.URL{
		Path:     "/query",
		RawQuery: url.Values{"q": {text}, "system": {system}, "limit": {"-1"}}.Encode(),
	}
}

func queryOp(cell int, text, system string, ref *reference) op {
	return op{cell: cell, text: text, system: system, url: queryURL(text, system), ref: ref}
}

func term(d rdf.Dict, id rdf.ID) string { return d.Term(id).String() }

func newWorkload(cfg config, sys *system) (*workload, error) {
	// The generator's stream is separate from the data generator's: the
	// same seed gives the same data and the same ops, and neither depends on
	// how many numbers the other drew.
	rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(len(cfg.workload))))
	switch cfg.workload {
	case wlPaper:
		return paperWorkload(sys, rng)
	case wlStar:
		return starWorkload(sys, rng)
	case wlLookup:
		return lookupWorkload(sys, rng)
	case wlMixed:
		return mixedWorkload(sys, rng)
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// setFixedOps makes a read-only workload: the same single lane every round.
func (w *workload) setFixedOps(ops []op) {
	lanes := [][]op{ops}
	w.lanes = func(int) [][]op { return lanes }
	w.probeOps = ops
}

func paperTexts(sys *system) ([]string, error) {
	var texts []string
	for _, q := range core.BenchmarkQueries() {
		t, err := bgp.PaperText(q, sys.w.DS.Graph.Dict, sys.w.Cat.Consts)
		if err != nil {
			return nil, err
		}
		texts = append(texts, t)
	}
	return texts, nil
}

// paperWorkload: the paper's 12 queries on the 4 served schemes, plan cache
// hot. Scan-, join- and aggregate-bound: the executor and the engines do
// more than 99 % of the work.
func paperWorkload(sys *system, rng *rand.Rand) (*workload, error) {
	texts, err := paperTexts(sys)
	if err != nil {
		return nil, err
	}
	w := &workload{name: wlPaper}
	w.setTexts(texts)
	queries := core.BenchmarkQueries()
	var pass []op
	for qi, t := range texts {
		for si, name := range schemeNames {
			w.cells = append(w.cells, queries[qi].String()+"/"+schemeKeys[si])
			pass = append(pass, queryOp(len(pass), t, name, w.refs[qi]))
		}
	}
	var ops []op
	for p := 0; p < paperPasses; p++ {
		perm := rng.Perm(len(pass))
		for _, i := range perm {
			ops = append(ops, pass[i])
		}
	}
	w.setFixedOps(ops)
	return w, nil
}

// subjectIndex answers "which properties does subject s have" on the
// normalized (SPO-sorted) graph.
type subjectIndex struct{ ts []rdf.Triple }

func (x subjectIndex) has(s, p rdf.ID) bool {
	i := sort.Search(len(x.ts), func(i int) bool {
		return x.ts[i].S > s || x.ts[i].S == s && x.ts[i].P >= p
	})
	return i < len(x.ts) && x.ts[i].S == s && x.ts[i].P == p
}

// byProperty groups the graph's triples by property, input order kept.
func byProperty(g *rdf.Graph) map[rdf.ID][]rdf.Triple {
	out := map[rdf.ID][]rdf.Triple{}
	for _, t := range g.Triples {
		out[t.P] = append(out[t.P], t)
	}
	return out
}

// The seed picks constants — which subject, which object — and never a
// query's shape or the tables it touches: those come from fixed frequency
// ranks of the property roster, whose sizes the generator fixes. A query's
// cost is set by the sizes of the tables it scans, so every seed asks for
// the same mix of work, and runs with different seeds measure the same
// thing. (Drawing properties by chance moved query_gmean_ms by 35 % and
// alloc_kb_per_op by 25 % between seeds.)

// starWorkload: few rows out, much work in. Anchored stars
//
//	SELECT ?s ?a ?b WHERE { ?s <p0> <o0> . ?s <p1> ?a . ?s <p2> ?b }
//
// of arity 2–4 and the unbound-property describe SELECT ?p ?o WHERE { <s>
// ?p ?o } — the paper's worst case for vertical partitioning (a union over
// every property table). The anchor (p0,o0) matches 1–20 subjects, with p0
// cycling over the properties of frequency rank 4–11; the siblings are the
// three most frequent properties, which the executor scans in full today,
// so the workload examines 10⁴–10⁵ rows per row returned.
func starWorkload(sys *system, rng *rand.Rand) (*workload, error) {
	g := sys.w.DS.Graph
	d := g.Dict
	ranked := sys.w.DS.PropsByRank
	if len(ranked) < 12 {
		return nil, fmt.Errorf("benchmark: star-selective needs 12 properties, have %d", len(ranked))
	}
	siblings, anchors := ranked[:3], ranked[4:12]
	type po struct{ p, o rdf.ID }
	poCount := make(map[po]int, len(g.Triples))
	for _, t := range g.Triples {
		poCount[po{t.P, t.O}]++
	}
	idx := subjectIndex{g.Triples}
	byProp := byProperty(g)
	w := &workload{name: wlStar}
	for _, sh := range []string{"star2", "star3", "star4", "describe"} {
		for _, k := range schemeKeys {
			w.cells = append(w.cells, sh+"/"+k)
		}
	}
	// candidates[a][k] are the triples of anchor property a whose (p,o) is
	// selective and whose subject has the first k+1 siblings.
	candidates := make([][3][]rdf.Triple, len(anchors))
	for a, p := range anchors {
		for _, t := range byProp[p] {
			if poCount[po{t.P, t.O}] > 20 {
				continue
			}
			for k := 0; k < 3 && idx.has(t.S, siblings[k]); k++ {
				candidates[a][k] = append(candidates[a][k], t)
			}
		}
	}
	var texts []string
	var shapeOf []int
	seen := map[string]bool{}
	vars := []string{"?a", "?b", "?c"}
	stars := starTexts * 3 / 4
	for tries := 0; len(texts) < stars; tries++ {
		if tries > 100*starTexts {
			return nil, fmt.Errorf("benchmark: data set too small to draw %d selective stars", stars)
		}
		arity := 2 + len(texts)%3
		// An anchor property without a candidate (an unselective one, or
		// small test data) passes its turn to the next.
		var pool []rdf.Triple
		for k := 0; k < len(anchors) && len(pool) == 0; k++ {
			pool = candidates[(len(texts)/3+k)%len(anchors)][arity-2]
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("benchmark: no selective anchor for a star of arity %d", arity)
		}
		t := pool[rng.Intn(len(pool))]
		sel := "SELECT ?s"
		where := fmt.Sprintf("?s %s %s", term(d, t.P), term(d, t.O))
		for k := 0; k < arity-1; k++ {
			sel += " " + vars[k]
			where += fmt.Sprintf(" . ?s %s %s", term(d, siblings[k]), vars[k])
		}
		text := sel + " WHERE { " + where + " }"
		if seen[text] {
			continue
		}
		seen[text] = true
		texts = append(texts, text)
		shapeOf = append(shapeOf, arity-2)
	}
	for len(texts) < starTexts {
		t := g.Triples[rng.Intn(len(g.Triples))]
		text := fmt.Sprintf("SELECT ?p ?o WHERE { %s ?p ?o }", term(d, t.S))
		if seen[text] {
			continue
		}
		seen[text] = true
		texts = append(texts, text)
		shapeOf = append(shapeOf, 3)
	}
	w.setTexts(texts)
	var ops []op
	for ti, t := range texts {
		for si, name := range schemeNames {
			ops = append(ops, queryOp(shapeOf[ti]*len(schemeNames)+si, t, name, w.refs[ti]))
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	w.setFixedOps(ops)
	w.simTexts = sample(texts, 24)
	return w, nil
}

// sample returns up to n elements of xs at an even stride.
func sample(xs []string, n int) []string {
	if len(xs) <= n {
		return xs
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}

// Point lookups are spread over lookupStrata properties starting at
// frequency rank lookupFirstRank: mid-sized tables (5–10 k rows of 400 k),
// where a lookup costs about the same on all four schemes. On the largest
// tables the column triple-store, which has no subject access path and scans
// the property, would cost 270 µs a lookup and decide the workload's
// throughput on memory bandwidth alone.
const (
	lookupStrata    = 8
	lookupFirstRank = 8
)

// lookupTexts draws n distinct point lookups SELECT ?o WHERE { <s> <p> ?o }
// with (s,p) taken from the data. Text i is on stratum i mod lookupStrata,
// so every band of popularity ranks asks for the same mix of table sizes
// whatever the seed. A stratum that runs out of subjects (small test data)
// continues on the next property not yet in use.
func lookupTexts(sys *system, rng *rand.Rand, n int) ([]string, error) {
	g := sys.w.DS.Graph
	ranked := sys.w.DS.PropsByRank
	if len(ranked) < lookupFirstRank+lookupStrata {
		return nil, fmt.Errorf("benchmark: point lookups need %d properties, have %d", lookupFirstRank+lookupStrata, len(ranked))
	}
	order := append(append([]rdf.ID(nil), ranked[lookupFirstRank:]...), ranked[:lookupFirstRank]...)
	byProp := byProperty(g)
	next := 0
	nextPool := func() []rdf.Triple {
		if next == len(order) {
			return nil
		}
		pool := append([]rdf.Triple(nil), byProp[order[next]]...)
		next++
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		return pool
	}
	pools := make([][]rdf.Triple, lookupStrata)
	for i := range pools {
		pools[i] = nextPool()
	}
	seen := make(map[[2]rdf.ID]bool, n)
	texts := make([]string, 0, n)
	for len(texts) < n {
		pool := &pools[len(texts)%lookupStrata]
		for len(*pool) == 0 {
			if *pool = nextPool(); *pool == nil {
				return nil, fmt.Errorf("benchmark: data set too small for %d distinct lookups", n)
			}
		}
		t := (*pool)[len(*pool)-1]
		*pool = (*pool)[:len(*pool)-1]
		if seen[[2]rdf.ID{t.S, t.P}] {
			continue
		}
		seen[[2]rdf.ID{t.S, t.P}] = true
		texts = append(texts, fmt.Sprintf("SELECT ?o WHERE { %s %s ?o }", term(g.Dict, t.S), term(g.Dict, t.P)))
	}
	return texts, nil
}

// zipfRanks draws n ranks in [0,k) with probability ∝ 1/(rank+1) — Zipf
// with exponent 1.0, which math/rand's generator (s > 1 only) cannot do.
func zipfRanks(rng *rand.Rand, k, n int) []int {
	cum := make([]float64, k)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	out := make([]int, n)
	for i := range out {
		u := rng.Float64() * total
		out[i] = sort.SearchFloat64s(cum, u)
		if out[i] >= k {
			out[i] = k - 1
		}
	}
	return out
}

// lookupWorkload: point lookups whose core execution is a minority of the
// handler call, so the per-request fixed costs of serve (canonicalize,
// cache, admission, telemetry, decode, JSON) dominate. The key popularity
// and a cache smaller than the key set make plan-cache hits and misses both
// occur at a stable ratio.
func lookupWorkload(sys *system, rng *rand.Rand) (*workload, error) {
	texts, err := lookupTexts(sys, rng, lookupKeys)
	if err != nil {
		return nil, err
	}
	w := &workload{name: wlLookup}
	w.setTexts(texts)
	for _, k := range schemeKeys {
		w.cells = append(w.cells, "lookup/"+k)
	}
	ops := make([]op, lookupOps)
	for i, rank := range zipfRanks(rng, len(texts), lookupOps) {
		si := i % len(schemeNames)
		ops[i] = queryOp(si, texts[rank], schemeNames[si], w.refs[rank])
	}
	w.setFixedOps(ops)
	w.simTexts = sample(texts, 24)
	return w, nil
}

// mixedState is mixed-rw's write side: what each session has inserted and
// deleted, so that reads of written keys know what to expect and the final
// state can be checked against base ∪ inserts ∖ deletes.
type mixedState struct {
	props    [writeGroup]string
	sessions []*session
	// sessionOps generates a session's next commits, each followed by its
	// reads, advancing the session's bookkeeping as if they had run.
	sessionOps func(s *session, commits int) []op
}

type session struct {
	id     int
	rng    *rand.Rand
	next   int   // next unused group number
	live   []int // inserted and not yet deleted, oldest first
	gone   []int // deleted, oldest first
	writes int   // commits issued; parity selects INSERT or DELETE
	reads  int
}

// newMixedState picks the properties written triples use: the most frequent
// ordinary ones, never the specials the paper queries bind.
func newMixedState(sys *system) (*mixedState, error) {
	m := &mixedState{}
	special := map[rdf.ID]bool{}
	c := sys.w.Cat.Consts
	for _, id := range []rdf.ID{c.Type, c.Records, c.Origin, c.Language, c.Point, c.Encoding} {
		special[id] = true
	}
	n := 0
	for _, p := range sys.w.DS.PropsByRank {
		if special[p] {
			continue
		}
		m.props[n] = term(sys.w.DS.Graph.Dict, p)
		if n++; n == writeGroup {
			return m, nil
		}
	}
	return nil, fmt.Errorf("benchmark: data set has too few ordinary properties")
}

func (m *mixedState) subject(sess, group int) string {
	return fmt.Sprintf("<bench/s%d/k%d>", sess, group)
}

func (m *mixedState) object(group int) string { return fmt.Sprintf(`"v%d"`, group) }

func (m *mixedState) groupTriples(sess, group int) string {
	var b strings.Builder
	for i, p := range m.props {
		if i > 0 {
			b.WriteString(" . ")
		}
		fmt.Fprintf(&b, "%s %s %s", m.subject(sess, group), p, m.object(group))
	}
	return b.String()
}

func updateOp(text string, changes int) op {
	return op{update: true, cell: -1, text: text, changes: changes, form: url.Values{"u": {text}}.Encode()}
}

// primeOp is the one commit that gives every session its initial pool. It
// holds at least compactEvery triples, so it compacts: the pools start in
// the base tables and the delta starts empty.
func (m *mixedState) primeOp() op {
	var b strings.Builder
	b.WriteString("INSERT DATA { ")
	first := true
	for _, s := range m.sessions {
		for g := 0; g < sessionPool; g++ {
			if !first {
				b.WriteString(" . ")
			}
			first = false
			b.WriteString(m.groupTriples(s.id, g))
			s.live = append(s.live, g)
		}
		s.next = sessionPool
	}
	b.WriteString(" }")
	return updateOp(b.String(), len(m.sessions)*sessionPool*writeGroup)
}

// mixedWorkload: each client is a session repeating 1 commit : 8 reads.
// Commits alternate INSERT DATA of a fresh group of 3 triples and DELETE
// DATA of the oldest group the session still has; reads are point lookups —
// half on keys from the data, half on keys the session wrote (present) or
// deleted (absent) — and, one in analyticEvery, paper q1 or q8. The same serve
// and core layers as the read-only workloads, used for writing: commit cost
// grows with the delta, reads go through overlay merge scans, and the
// compaction in the middle of every round is a four-scheme rebuild under
// the write lock.
func mixedWorkload(sys *system, rng *rand.Rand) (*workload, error) {
	base, err := lookupTexts(sys, rng, 1024)
	if err != nil {
		return nil, err
	}
	paper, err := paperTexts(sys)
	if err != nil {
		return nil, err
	}
	queries := core.BenchmarkQueries()
	var analytic []string
	for i, q := range queries {
		if q.ID == core.Q1 || q.ID == core.Q8 {
			analytic = append(analytic, paper[i])
		}
	}
	if len(analytic) != 2 {
		return nil, fmt.Errorf("benchmark: expected q1 and q8 among the paper queries")
	}
	w := &workload{name: wlMixed}
	w.setTexts(append(append([]string(nil), base...), analytic...))
	for _, sh := range []string{"lookup-base", "lookup-written", "q1", "q8"} {
		for _, k := range schemeKeys {
			w.cells = append(w.cells, sh+"/"+k)
		}
	}

	// Written triples reuse three frequent ordinary properties (never the
	// specials the paper queries bind), with fresh subjects and objects: the
	// overlay's merge scans are exercised on large tables, and no base
	// lookup or paper query changes its answer.
	m, err := newMixedState(sys)
	if err != nil {
		return nil, err
	}
	clients := clientsOf(wlMixed)
	for i := 0; i < clients; i++ {
		m.sessions = append(m.sessions, &session{id: i, rng: rand.New(rand.NewSource(rng.Int63()))})
	}
	w.mixed = m
	nSchemes := len(schemeNames)

	lookup := func(subj, prop string) string {
		return fmt.Sprintf("SELECT ?o WHERE { %s %s ?o }", subj, prop)
	}
	readOp := func(s *session) op {
		i := s.reads
		s.reads++
		si := (i + s.id) % nSchemes
		switch {
		case i%analyticEvery == analyticEvery-1:
			which := (i / analyticEvery) % 2
			ti := len(base) + which
			return queryOp((2+which)*nSchemes+si, w.texts[ti], schemeNames[si], w.refs[ti])
		case i%2 == 0:
			ti := s.rng.Intn(len(base))
			return queryOp(si, base[ti], schemeNames[si], w.refs[ti])
		}
		// A key this session wrote: one of its 8 newest groups (the row must
		// be there) or, every other time, one of its 8 latest deletions (it
		// must be gone).
		prop := s.rng.Intn(writeGroup)
		if s.rng.Intn(2) == 0 && len(s.gone) > 0 {
			grp := s.gone[len(s.gone)-1-s.rng.Intn(min(8, len(s.gone)))]
			return queryOp(nSchemes+si, lookup(m.subject(s.id, grp), m.props[prop]), schemeNames[si], &reference{})
		}
		grp := s.live[len(s.live)-1-s.rng.Intn(min(8, len(s.live)))]
		obj := m.object(grp)
		return queryOp(nSchemes+si, lookup(m.subject(s.id, grp), m.props[prop]), schemeNames[si],
			&reference{rows: 1, hash: hashRows([][]*string{{&obj}})})
	}
	commitOp := func(s *session) op {
		s.writes++
		if s.writes%2 == 1 {
			grp := s.next
			s.next++
			s.live = append(s.live, grp)
			return updateOp("INSERT DATA { "+m.groupTriples(s.id, grp)+" }", writeGroup)
		}
		grp := s.live[0]
		s.live = s.live[1:]
		s.gone = append(s.gone, grp)
		return updateOp("DELETE DATA { "+m.groupTriples(s.id, grp)+" }", writeGroup)
	}
	m.sessionOps = func(s *session, commits int) []op {
		var ops []op
		for k := 0; k < commits; k++ {
			ops = append(ops, commitOp(s))
			for r := 0; r < readsPerCommit; r++ {
				ops = append(ops, readOp(s))
			}
		}
		return ops
	}
	w.lanes = func(round int) [][]op {
		// The warm-up is half a cycle, so that in every measured round the
		// compaction falls in the middle, while the other sessions read.
		commits := commitsPerRnd
		if round < 0 {
			commits /= 2
		}
		lanes := make([][]op, clients)
		for ci, s := range m.sessions {
			mine := commits / clients
			if ci < commits%clients {
				mine++
			}
			lanes[ci] = m.sessionOps(s, mine)
		}
		return lanes
	}
	// The probes need reads whose answers no write changes: the base lookups
	// and, in the workload's own proportion, q1 and q8.
	for i := 0; i < 512; i++ {
		si := i % nSchemes
		ti := i % len(base)
		if i%analyticEvery == analyticEvery-1 {
			ti = len(base) + (i/analyticEvery)%2
		}
		w.probeOps = append(w.probeOps, queryOp(si, w.texts[ti], schemeNames[si], w.refs[ti]))
	}
	w.simTexts = sample(w.texts, 24)
	return w, nil
}

// opsDigest fingerprints an op stream: same seed ⇒ same digest.
func opsDigest(lanes [][]op) uint64 {
	f := fnv.New64a()
	for _, lane := range lanes {
		for _, o := range lane {
			if o.update {
				f.Write([]byte(o.form))
			} else {
				f.Write([]byte(o.url.RawQuery))
			}
			f.Write([]byte{0})
		}
		f.Write([]byte{1})
	}
	return f.Sum64()
}
