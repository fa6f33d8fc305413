package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The noise study (-repeat) and the before/after table (-compare). Both
// work on the "metric <name> <value> <unit>" lines a run prints, so they
// see the workload-specific extras (commit latencies) as well as the
// metrics BENCHMARK.json names.

// series is one metric's values over repeated runs of one workload.
type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the interquartile distance as a share of the median — the
// figure the acceptance driver holds against a metric's bound.
func (s series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// maxDeviation is the largest relative distance of a run from the median.
func (s series) maxDeviation() float64 {
	if s.Median == 0 {
		return 0
	}
	d := 0.0
	for _, v := range s.Values {
		d = math.Max(d, math.Abs(v-s.Median)/math.Abs(s.Median))
	}
	return d
}

// ledger is the -out file: the first in-tree performance history.
type ledger struct {
	Env       map[string]string            `json:"env"`
	Workloads map[string]map[string]series `json:"workloads"`
}

// runChild runs one benchmark process and returns its metric lines.
func runChild(args ...string) (map[string]metricValue, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", self, strings.Join(args, " "), err)
	}
	vals := map[string]metricValue{}
	correct := false
	sc := bufio.NewScanner(bytes.NewReader(outBytes))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "metric" {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric line %q", sc.Text())
			}
			vals[f[1]] = metricValue{v, f[3]}
		}
		if strings.HasPrefix(sc.Text(), `{"correct":true`) {
			correct = true
		}
	}
	if !correct {
		return nil, fmt.Errorf("%s: run was not correct", strings.Join(args, " "))
	}
	return vals, nil
}

func bounds() (map[string]benchMetric, error) {
	bf, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	m := map[string]benchMetric{}
	for _, b := range workloadOnly {
		m[b.Name] = b
	}
	for _, b := range bf.EndToEnd {
		m[b.Name] = b
	}
	for _, b := range bf.PerLayer {
		m[b.Name] = b
	}
	return m, nil
}

// runRepeat runs every workload n times as separate processes — the way the
// acceptance driver does — and prints, per workload and metric, the median,
// quartiles, spread and largest deviation, as markdown. With one seed for
// all runs (the default) exact metrics must not differ at all; with
// varySeed each run gets its own seed, which is the driver's procedure, and
// only the spreads are judged. It reports false if a bounded metric's
// spread exceeds its bound or an exact metric moved.
func runRepeat(n int, seed int64, seconds float64, traced, varySeed bool, out string) (bool, error) {
	bnd, err := bounds()
	if err != nil {
		return false, err
	}
	led := ledger{
		Env: map[string]string{
			"go": runtime.Version(), "nproc": fmt.Sprint(runtime.NumCPU()),
			"cores": fmt.Sprint(cores()), "runs": fmt.Sprint(n),
			"seed": fmt.Sprint(seed), "vary_seed": fmt.Sprint(varySeed),
			"seconds": fmt.Sprint(seconds), "traced": fmt.Sprint(traced),
		},
		Workloads: map[string]map[string]series{},
	}
	fmt.Printf("# Noise study: %d runs per workload\n\n", n)
	fmt.Printf("`%s`\n\n", envLine(led.Env))
	fmt.Println("spread = (Q3 − Q1) ÷ median, quartiles as Python's `statistics.quantiles(n=4)`; max dev = largest |run − median| ÷ median.")
	ok := true
	for _, wl := range workloadNames {
		vals := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			s := seed
			if varySeed {
				s += int64(i)
			}
			args := []string{"-workload", wl, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds)}
			if traced {
				args = append(args, "-trace", "1")
			}
			m, err := runChild(args...)
			if err != nil {
				return false, err
			}
			for k, v := range m {
				vals[k] = append(vals[k], v.Value)
				units[k] = v.Unit
			}
		}
		led.Workloads[wl] = map[string]series{}
		names := make([]string, 0, len(vals))
		for k := range vals {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("\n## %s\n\n", wl)
		fmt.Println("| metric | unit | median | Q1 | Q3 | spread | max dev | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, k := range names {
			q1, q2, q3 := quartiles(vals[k])
			s := series{Unit: units[k], Median: q2, Q1: q1, Q3: q3, Values: vals[k]}
			led.Workloads[wl][k] = s
			bound, verdict := "-", "-"
			switch b, bounded := bnd[k]; {
			case exactMetrics[k] && !varySeed:
				bound, verdict = "exact", "ok"
				if s.maxDeviation() != 0 {
					verdict, ok = "MOVED", false
				}
			case bounded && b.Bound > 0:
				bound, verdict = fmt.Sprint(b.Bound), "ok"
				if s.spread() > b.Bound {
					verdict, ok = "TOO NOISY", false
				} else if s.maxDeviation() > b.Bound {
					verdict = "ok (outlier run)"
				}
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.4f | %.4f | %s | %s |\n",
				k, s.Unit, s.Median, s.Q1, s.Q3, s.spread(), s.maxDeviation(), bound, verdict)
		}
	}
	if out != "" {
		raw, err := json.MarshalIndent(led, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func envLine(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + env[k]
	}
	return strings.Join(parts, " ")
}

func readLedger(path string) (*ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// verdict applies a bound to one before/after pair. A metric whose own
// run-to-run spread exceeds the bound cannot show a change of that size, so
// it is unresolved rather than unchanged; a move in either direction has to
// beat both sides' spread to be called one, and a worsening inside the bound
// is still named, so that the bound's width hides nothing; an exact metric
// has no tolerance at all.
func verdict(name string, before, after series, b benchMetric, bounded bool) string {
	if exactMetrics[name] {
		if before.Median == after.Median {
			return "unchanged"
		}
		return "changed (exact)"
	}
	if before.Median == 0 {
		return "-"
	}
	rel := (after.Median - before.Median) / math.Abs(before.Median)
	if b.Better == "higher" {
		rel = -rel
	}
	// rel > 0 now means worse.
	spread := math.Max(before.spread(), after.spread())
	switch {
	case bounded && b.Bound > 0 && spread > b.Bound:
		return "unresolved"
	case bounded && b.Bound > 0 && rel > b.Bound:
		return "REGRESSED"
	case !bounded || b.Better == "":
		return "-"
	case -rel > spread && -rel > 0.01:
		return "improved"
	case rel > spread && rel > 0.01:
		return "worse (within bound)"
	}
	return "unchanged"
}

// runCompare prints the before/after table of two ledgers.
func runCompare(oldPath, newPath string) error {
	bnd, err := bounds()
	if err != nil {
		return err
	}
	before, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	after, err := readLedger(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("before: %s (`%s`)\n\nafter: %s (`%s`)\n", oldPath, envLine(before.Env), newPath, envLine(after.Env))
	for _, wl := range workloadNames {
		b, a := before.Workloads[wl], after.Workloads[wl]
		if b == nil || a == nil {
			continue
		}
		names := make([]string, 0, len(b))
		for k := range b {
			if _, both := a[k]; both {
				names = append(names, k)
			}
		}
		sort.Strings(names)
		fmt.Printf("\n## %s\n\n", wl)
		fmt.Println("| metric | unit | before | after | change | spread before | spread after | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, k := range names {
			bm, bounded := bnd[k]
			change := "-"
			if b[k].Median != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(a[k].Median-b[k].Median)/math.Abs(b[k].Median))
			}
			bound := "-"
			if exactMetrics[k] {
				bound = "exact"
			} else if bounded && bm.Bound > 0 {
				bound = fmt.Sprint(bm.Bound)
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %s | %.4f | %.4f | %s | %s |\n",
				k, b[k].Unit, b[k].Median, a[k].Median, change, b[k].spread(), a[k].spread(), bound,
				verdict(k, b[k], a[k], bm, bounded))
		}
	}
	return nil
}
