package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
)

// The end-to-end run: closed-loop clients drive the service's HTTP handler
// in-process — handler.ServeHTTP against a recorder, no socket. Over
// loopback TCP the same point lookup costs 72–114 µs against 15–36 µs
// through the handler, and identical runs disagree by 19 % in QPS: the
// socket is four fifths of the latency and all of the noise, and none of it
// is this repository's code.

// respWriter is the recorder: it appends the response to a caller-owned
// buffer, so a round that replays the previous round's ops allocates
// nothing on the harness side.
type respWriter struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

var (
	updateURL  = &url.URL{Path: "/update"}
	formHeader = http.Header{"Content-Type": {"application/x-www-form-urlencoded"}}
	noHeader   = http.Header{}
)

func (o *op) request() *http.Request {
	if o.update {
		return &http.Request{
			Method: http.MethodPost, URL: updateURL, Header: formHeader, Host: "bench",
			Body: io.NopCloser(strings.NewReader(o.form)), ContentLength: int64(len(o.form)),
		}
	}
	return &http.Request{Method: http.MethodGet, URL: o.url, Header: noHeader, Host: "bench"}
}

// roundData is what one round recorded, indexed by op (lanes concatenated).
type roundData struct {
	wall      time.Duration
	lat       []time.Duration
	status    []int
	bodies    [][]byte
	minVer    []uint64 // the issuing session's last commit when the op was sent
	compacted []bool
	badWrite  []bool
}

func (rd *roundData) resize(n int) {
	if len(rd.lat) == n {
		return
	}
	rd.lat = make([]time.Duration, n)
	rd.status = make([]int, n)
	rd.minVer = make([]uint64, n)
	rd.compacted = make([]bool, n)
	rd.badWrite = make([]bool, n)
	// Keep the response buffers: they are the bulk of the harness's memory.
	for len(rd.bodies) < n {
		rd.bodies = append(rd.bodies, nil)
	}
	rd.bodies = rd.bodies[:n]
}

type runner struct {
	handler http.Handler
	clients int
	rd      roundData
}

// client is one closed-loop caller: it sends its next request when the
// previous one has returned.
type client struct {
	w           respWriter
	lastVersion uint64
}

func (cl *client) do(h http.Handler, o *op, i int, rd *roundData) {
	clear(cl.w.hdr)
	cl.w.code = http.StatusOK
	cl.w.body = rd.bodies[i][:0]
	req := o.request()
	rd.minVer[i] = cl.lastVersion
	t0 := time.Now()
	h.ServeHTTP(&cl.w, req)
	rd.lat[i] = time.Since(t0)
	rd.status[i] = cl.w.code
	rd.bodies[i] = cl.w.body
	rd.compacted[i], rd.badWrite[i] = false, false
	if o.update && cl.w.code == http.StatusOK {
		// The session needs the commit's version before its next read.
		var ur serve.UpdateResponse
		if err := json.Unmarshal(cl.w.body, &ur); err != nil || ur.Inserted+ur.Deleted != o.changes {
			rd.badWrite[i] = true
		}
		cl.lastVersion = ur.Version
		rd.compacted[i] = ur.Compacted
	}
}

// run executes one round and returns its record, valid until the next run.
func (rn *runner) run(lanes [][]op) *roundData {
	total := 0
	for _, l := range lanes {
		total += len(l)
	}
	rd := &rn.rd
	rd.resize(total)
	var wg sync.WaitGroup
	start := time.Now()
	if len(lanes) == 1 {
		ops := lanes[0]
		var next atomic.Int64
		for c := 0; c < rn.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := client{w: respWriter{hdr: http.Header{}}}
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ops) {
						return
					}
					cl.do(rn.handler, &ops[i], i, rd)
				}
			}()
		}
	} else {
		off := 0
		for _, lane := range lanes {
			wg.Add(1)
			go func(lane []op, off int) {
				defer wg.Done()
				cl := client{w: respWriter{hdr: http.Header{}}}
				for i := range lane {
					cl.do(rn.handler, &lane[i], off+i, rd)
				}
			}(lane, off)
			off += len(lane)
		}
	}
	wg.Wait()
	rd.wall = time.Since(start)
	return rd
}

// queryBody is the part of serve.QueryResponse the gate reads.
type queryBody struct {
	Version   uint64      `json:"version"`
	Rows      [][]*string `json:"rows"`
	RowCount  int         `json:"rowCount"`
	Truncated bool        `json:"truncated"`
	QueuedMs  float64     `json:"queuedMs"`
}

// verify checks every response of a round, after its timers have stopped:
// status 200, rows equal to the reference (bag hash, or sequence hash under
// ORDER BY), and — for a session that writes — a version no older than its
// last commit, which with the expected rows is read-your-writes. It returns
// the number of failed ops and the summed admission wait the responses
// reported.
func verify(lanes [][]op, rd *roundData, workers int) (failed int, queuedMs float64) {
	var flat []*op
	for _, l := range lanes {
		for i := range l {
			flat = append(flat, &l[i])
		}
	}
	fails := make([]int, workers)
	queued := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(flat); i += workers {
				o := flat[i]
				if rd.status[i] != http.StatusOK || rd.badWrite[i] {
					fails[w]++
					continue
				}
				if o.update {
					continue
				}
				var qb queryBody
				if err := json.Unmarshal(rd.bodies[i], &qb); err != nil ||
					qb.Truncated || qb.RowCount != len(qb.Rows) ||
					qb.Version < rd.minVer[i] || !o.ref.matches(qb.Rows) {
					fails[w]++
				}
				queued[w] += qb.QueuedMs
			}
		}(w)
	}
	wg.Wait()
	for w := range fails {
		failed += fails[w]
		queuedMs += queued[w]
	}
	return failed, queuedMs
}

// computeRefs fills the workload's references: every distinct text once,
// with the materializing executor, on the first scheme. The timed requests
// run on the streaming executor and on all four schemes, so a response is
// only accepted if a different executor on (three times out of four) a
// different storage scheme agrees with it.
func computeRefs(sys *system, wl *workload, corrupt bool) error {
	refSvc, err := bench.NewService(sys.w, sys.served, serve.Config{Materialize: true, ExecWorkers: 1})
	if err != nil {
		return err
	}
	for i, text := range wl.texts {
		res, err := refSvc.ExecText(context.Background(), text, schemeNames[0])
		if err != nil {
			return fmt.Errorf("benchmark: reference for %q: %w", text, err)
		}
		rows := refSvc.DecodeRowsNull(res, -1)
		*wl.refs[i] = reference{
			rows:    len(rows),
			hash:    hashRows(rows),
			ordered: strings.Contains(strings.ToUpper(text), "ORDER BY"),
		}
		if corrupt {
			wl.refs[i].hash.bag ^= 1
			wl.refs[i].hash.seq ^= 1
		}
	}
	return nil
}

// roundSample is one measured round, reduced to what the estimators need.
type roundSample struct {
	wallS      float64
	queries    int
	cellMs     [][]float64 // per cell
	pooledMs   []float64
	commitMs   []float64 // commits that did not compact
	compactMs  []float64
	allocBytes uint64
	mallocs    uint64
	gcPauseNs  uint64
	ops        int
	queuedMs   float64
	respBytes  int64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func reduceRound(wl *workload, lanes [][]op, rd *roundData, m0, m1 *runtime.MemStats) roundSample {
	s := roundSample{
		wallS:      rd.wall.Seconds(),
		cellMs:     make([][]float64, len(wl.cells)),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
	i := 0
	for _, l := range lanes {
		for k := range l {
			o := &l[k]
			d := ms(rd.lat[i])
			s.ops++
			switch {
			case !o.update:
				s.queries++
				s.cellMs[o.cell] = append(s.cellMs[o.cell], d)
				s.pooledMs = append(s.pooledMs, d)
				s.respBytes += int64(len(rd.bodies[i]))
			case rd.compacted[i]:
				s.compactMs = append(s.compactMs, d)
			default:
				s.commitMs = append(s.commitMs, d)
			}
			i++
		}
	}
	return s
}

// measured is the outcome of the round loop.
type measured struct {
	rounds    []roundSample
	attempted int
	failed    int
	digest    uint64 // ops of the first measured round
}

// measure primes and warms the service, then runs measured rounds until
// seconds are spent (at least minRounds), forcing a collection before each
// round so that no round inherits the previous one's garbage. Verification
// happens between rounds, outside every timer.
func measure(cfg config, sys *system, wl *workload) (*measured, error) {
	rn := &runner{handler: sys.handler, clients: clientsOf(cfg.workload)}
	out := &measured{}
	if wl.mixed != nil {
		prime := [][]op{{wl.mixed.primeOp()}}
		rd := rn.run(prime)
		f, _ := verify(prime, rd, 1)
		if f > 0 || !rd.compacted[0] {
			return nil, fmt.Errorf("benchmark: priming commit failed or did not compact: %s", rd.bodies[0])
		}
	}
	warm := wl.lanes(-1)
	warmFailed, _ := verify(warm, rn.run(warm), cores())

	phase := time.Now()
	var lastIter time.Duration
	for r := 0; ; r++ {
		if cfg.rounds > 0 {
			if r >= cfg.rounds {
				break
			}
		} else if r >= minRounds && (time.Since(phase)+lastIter).Seconds() > cfg.seconds {
			break
		}
		iter := time.Now()
		lanes := wl.lanes(r)
		if r == 0 {
			out.digest = opsDigest(lanes)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		rd := rn.run(lanes)
		runtime.ReadMemStats(&m1)
		failed, queued := verify(lanes, rd, cores())
		s := reduceRound(wl, lanes, rd, &m0, &m1)
		s.queuedMs = queued
		out.rounds = append(out.rounds, s)
		out.attempted += s.ops
		out.failed += failed
		lastIter = time.Since(iter)
	}
	out.failed += warmFailed
	if out.failed > out.attempted {
		out.failed = out.attempted
	}
	if wl.mixed != nil {
		if err := checkFinalState(sys, wl.mixed); err != nil {
			// The served state is wrong, so no read of this run can be
			// trusted.
			fmt.Fprintln(os.Stderr, "benchmark: final state:", err)
			out.failed = out.attempted
		}
	}
	return out, nil
}

// checkFinalState is mixed-rw's closing gate: the mutator's materialized
// graph must be exactly base ∪ inserts ∖ deletes.
func checkFinalState(sys *system, m *mixedState) error {
	g, _, err := sys.mut.Materialize()
	if err != nil {
		return err
	}
	set := make(map[rdf.Triple]struct{}, len(g.Triples))
	for _, t := range g.Triples {
		set[t] = struct{}{}
	}
	d := g.Dict
	has := func(sess, grp int) (int, error) {
		n := 0
		for _, p := range m.props {
			s, err1 := rdf.ParseTerm(m.subject(sess, grp))
			pt, err2 := rdf.ParseTerm(p)
			o, err3 := rdf.ParseTerm(m.object(grp))
			if err1 != nil || err2 != nil || err3 != nil {
				return 0, fmt.Errorf("benchmark: cannot parse own terms")
			}
			si, ok1 := d.Lookup(s)
			pi, ok2 := d.Lookup(pt)
			oi, ok3 := d.Lookup(o)
			if ok1 && ok2 && ok3 {
				if _, ok := set[rdf.Triple{S: si, P: pi, O: oi}]; ok {
					n++
				}
			}
		}
		return n, nil
	}
	live := 0
	for _, s := range m.sessions {
		isLive := make(map[int]bool, len(s.live))
		for _, grp := range s.live {
			isLive[grp] = true
		}
		live += len(s.live) * writeGroup
		for grp := 0; grp < s.next; grp++ {
			n, err := has(s.id, grp)
			if err != nil {
				return err
			}
			want := 0
			if isLive[grp] {
				want = writeGroup
			}
			if n != want {
				return fmt.Errorf("session %d group %d: %d of its triples are stored, want %d", s.id, grp, n, want)
			}
		}
	}
	if want := sys.w.DS.Graph.Len() + live; g.Len() != want {
		return fmt.Errorf("materialized graph has %d triples, want base %d + %d live inserts", g.Len(), sys.w.DS.Graph.Len(), live)
	}
	return nil
}
