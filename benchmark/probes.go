package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"blackswan/internal/bench"
	"blackswan/internal/bgp"
	"blackswan/internal/core"
	"blackswan/internal/ingest"
	"blackswan/internal/rdf"
	"blackswan/internal/serve"
)

// The probes of the traced run: layers that no single query op isolates —
// the write path, the physical scans and joins under the executor, the
// dictionary, the loader, and the socket the end-to-end run leaves out.
// Each calls the layer's public functions directly, on the run's own data.

// probeLoopback times the same handler behind a real loopback socket, one
// keep-alive client, for up to a second. Information only: it is the cost
// the in-process transport removes. A sandbox without sockets reports 0.
func probeLoopback(sys *system, ops []op, met map[string]float64) {
	defer func() {
		// httptest.NewServer panics when it cannot listen.
		if recover() != nil {
			met["serve.loopback_p50_us"] = 0
		}
	}()
	srv := httptest.NewServer(sys.handler)
	defer srv.Close()
	client := srv.Client()
	var lat []float64
	deadline := time.Now().Add(time.Second)
	for i := 0; i < len(ops) && i < 500 && time.Now().Before(deadline); i++ {
		if ops[i].update {
			continue
		}
		t0 := time.Now()
		resp, err := client.Get(srv.URL + "/query?" + ops[i].url.RawQuery)
		if err != nil {
			break
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			break
		}
		lat = append(lat, us(time.Since(t0)))
	}
	met["serve.loopback_p50_us"] = median(lat)
}

// probeWrites runs one full compaction cycle on a fresh service over the
// same tables: a writer commits groups of writeGroup fresh triples until the
// delta reaches compactEvery and the commit compacts, while a reader replays
// the workload's reads through that service's handler. Commit cost against
// delta size, the compaction itself, and what the compaction does to
// concurrent reads all come from this one cycle.
func probeWrites(sys *system, reads []op, met map[string]float64) error {
	svc, err := bench.NewService(sys.w, sys.served, serve.Config{MaxConcurrent: cores(), ExecWorkers: 1})
	if err != nil {
		return err
	}
	mut, err := bench.NewMutator(svc, sys.w, sys.served, compactEvery)
	if err != nil {
		return err
	}
	handler := serve.NewHandler(svc)
	m, err := newMixedState(sys)
	if err != nil {
		return err
	}

	type read struct{ start, end time.Time }
	var readLog []read
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &respWriter{hdr: http.Header{}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o := &reads[i%len(reads)]
			clear(w.hdr)
			w.body = w.body[:0]
			t0 := time.Now()
			handler.ServeHTTP(w, o.request())
			readLog = append(readLog, read{t0, time.Now()})
		}
	}()

	var commits, parses []float64
	var compactStart, compactEnd time.Time
	cycle := func() error {
		ctx := context.Background()
		for g := 0; g <= 2*commitsPerRnd; g++ {
			text := "INSERT DATA { " + m.groupTriples(-1, g) + " }"
			t0 := time.Now()
			res, err := mut.ApplyUpdate(ctx, text)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if _, err := bgp.ParseUpdate(text); err != nil {
				return err
			}
			parses = append(parses, us(time.Since(t1)))
			if res.Compacted {
				compactStart, compactEnd = t0, t1
				return nil
			}
			commits = append(commits, us(t1.Sub(t0)))
		}
		return fmt.Errorf("benchmark: write probe never compacted")
	}
	err = cycle()
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}

	edge := min(16, len(commits))
	met["serve.commit_us_empty_delta"] = median(commits[:edge])
	met["serve.commit_us_full_delta"] = median(commits[len(commits)-edge:])
	met["serve.compact_ms"] = ms(compactEnd.Sub(compactStart))
	if _, staged := met["bgp.parse_update_us"]; !staged {
		met["bgp.parse_update_us"] = mean(parses)
	}
	var in, out []float64
	for _, r := range readLog {
		if r.start.Before(compactEnd) && r.end.After(compactStart) {
			in = append(in, ms(r.end.Sub(r.start)))
		} else {
			out = append(out, ms(r.end.Sub(r.start)))
		}
	}
	if len(in) > 0 && len(out) > 0 {
		met["serve.read_stall_ratio"] = percentile(in, 0.90) / percentile(out, 0.90)
	}
	return nil
}

// probeStores measures the physical layer through core.PhysicalSource: full
// and subject-bound property scans and a hash join on each engine (its
// vertically-partitioned scheme), the overlay's merge scan against its
// base, and the delta build — on the 8 most frequent properties.
func probeStores(sys *system, met map[string]float64) error {
	g := sys.w.DS.Graph
	props := sys.w.DS.PropsByRank
	if len(props) > 8 {
		props = props[:8]
	}
	srcs := make([]core.PhysicalSource, len(sys.served))
	for i, s := range sys.served {
		src, ok := s.DB.(core.PhysicalSource)
		if !ok {
			return fmt.Errorf("benchmark: %s has no physical source", s.Name)
		}
		srcs[i] = src
	}
	scanAll := func(src core.PhysicalSource) (time.Duration, int, error) {
		rows := 0
		t0 := time.Now()
		for _, p := range props {
			r, err := src.ScanProp(p, rdf.NoID, rdf.NoID, core.AllScanCols())
			if err != nil {
				return 0, 0, err
			}
			rows += r.Len()
		}
		return time.Since(t0), rows, nil
	}
	engines := []struct {
		name string
		src  core.PhysicalSource
	}{{"rowstore", srcs[1]}, {"colstore", srcs[3]}}
	for _, e := range engines {
		var scan []float64
		for rep := 0; rep < 5; rep++ {
			d, rows, err := scanAll(e.src)
			if err != nil {
				return err
			}
			scan = append(scan, float64(d)/float64(rows))
		}
		met[e.name+".scan_ns_per_row"] = median(scan)

		step := len(g.Triples)/2000 + 1
		var lookups []float64
		for i := 0; i < len(g.Triples); i += step {
			t := g.Triples[i]
			t0 := time.Now()
			if _, err := e.src.ScanProp(t.P, t.S, rdf.NoID, core.AllScanCols()); err != nil {
				return err
			}
			lookups = append(lookups, us(time.Since(t0)))
		}
		met[e.name+".lookup_us"] = mean(lookups)

		l, err := e.src.ScanProp(props[0], rdf.NoID, rdf.NoID, core.AllScanCols())
		if err != nil {
			return err
		}
		r, err := e.src.ScanProp(props[1], rdf.NoID, rdf.NoID, core.AllScanCols())
		if err != nil {
			return err
		}
		var join []float64
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			e.src.Ops().HashJoin(l, r, 0, 0)
			join = append(join, float64(time.Since(t0))/float64(l.Len()+r.Len()))
		}
		met[e.name+".join_ns_per_row"] = median(join)
	}

	// A full delta: compactEvery−1 additions spread over the scanned
	// properties, fresh subjects and objects.
	d := g.Dict
	adds := make([]rdf.Triple, 0, compactEvery-1)
	for i := 0; i < compactEvery-1; i++ {
		adds = append(adds, rdf.Triple{
			S: d.InternIRI(fmt.Sprintf("bench/overlay/s%d", i)),
			P: props[i%len(props)],
			O: d.InternLiteral(fmt.Sprintf("overlay-%d", i)),
		})
	}
	rdf.SPO.Sort(adds)
	freq := rdf.ComputeStats(g).PropFreq
	var delta *core.Delta
	var build []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		var err error
		delta, err = core.NewDelta(sys.w.Cat, freq, adds, nil)
		if err != nil {
			return err
		}
		build = append(build, us(time.Since(t0)))
	}
	met["core.delta_build_us"] = median(build)
	var base, over time.Duration
	for _, src := range srcs {
		ov := core.NewDeltaOverlay(src, delta)
		for rep := 0; rep < 3; rep++ {
			db, _, err := scanAll(src)
			if err != nil {
				return err
			}
			do, _, err := scanAll(ov)
			if err != nil {
				return err
			}
			base += db
			over += do
		}
	}
	met["core.overlay_scan_slowdown"] = float64(over) / float64(base)

	// The dictionary: decode, look up, intern.
	n := d.Len()
	step := n/100_000 + 1
	var terms []rdf.Term
	t0 := time.Now()
	for id := 1; id <= n; id += step {
		t := d.Term(rdf.ID(id))
		_ = t.String()
		terms = append(terms, t)
	}
	met["rdf.term_ns"] = float64(time.Since(t0)) / float64(len(terms))
	t0 = time.Now()
	for _, t := range terms {
		d.Lookup(t)
	}
	met["rdf.lookup_ns"] = float64(time.Since(t0)) / float64(len(terms))
	fresh := make([]rdf.Term, 20_000)
	for i := range fresh {
		fresh[i] = rdf.NewIRI(fmt.Sprintf("bench/intern/%d", i))
	}
	t0 = time.Now()
	for _, t := range fresh {
		d.Intern(t)
	}
	met["rdf.intern_ns"] = float64(time.Since(t0)) / float64(len(fresh))
	return nil
}

// probeIngest takes the data set through the deployment path: serialize to
// N-Triples, bulk-load (deterministic mode), rebuild the four schemes
// through the ingest pipeline.
func probeIngest(sys *system, met map[string]float64) error {
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, sys.w.DS.Graph); err != nil {
		return err
	}
	g, st, err := ingest.Load(bytes.NewReader(buf.Bytes()), ingest.Options{Deterministic: true})
	if err != nil {
		return err
	}
	met["ingest.load_triples_per_s"] = st.TriplesPerSec()
	w2, err := bench.WorkloadFromGraph(g)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, _, err := bench.RebuildTargets(w2, g, w2.Cat); err != nil {
		return err
	}
	met["ingest.build_schemes_s"] = time.Since(t0).Seconds()
	return nil
}
