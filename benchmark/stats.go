package main

import (
	"math"
	"sort"
)

// The estimators every reported number goes through. Host timings on a
// shared 2-core machine are noisy in one direction: for minutes at a time
// identical rounds take 20–70 % longer than in the quiet minutes between
// (0.43 s → 0.75 s within one point-lookup run), and nothing ever makes a
// round faster than the code allows. So nothing host-clocked is reported as
// a mean over the run: a run is cut into rounds of identical work, and the
// reported value is the lower quartile over rounds — the level of the least
// disturbed quarter. On a quiet machine that is within 2 % of the median;
// on a noisy one it moves a third as much as the median does.

// median returns the middle value of xs (mean of the middle two for an even
// count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastQuartile returns the first quartile of xs: the round-level estimator
// of every lower-is-better host timing (see the comment at the top).
func fastQuartile(xs []float64) float64 {
	q1, _, _ := quartiles(xs)
	return q1
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest value with at least q·n values at or below it. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// geomean returns the geometric mean of the positive values of xs — the
// paper's G. Unlike bench.GeoMean it does not clamp to a millisecond: point
// lookups cost microseconds, and a clamp would flatten them into a constant.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// so the noise study's spreads are the numbers the acceptance driver
// computes. With fewer than two values all three are the single value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cellGeomean is query_gmean_ms: rounds[r][c] holds the latencies (ms) cell
// c saw in round r; each cell is summarized by the lower quartile over
// rounds of its per-round median, and the cells by their geometric mean. A pooled p50
// would jump between discrete modes (point-lookup has three schemes near
// 7 µs and one at 134 µs); the per-cell form moves smoothly with any cell.
func cellGeomean(rounds [][][]float64) float64 {
	if len(rounds) == 0 {
		return 0
	}
	cells := len(rounds[0])
	perCell := make([]float64, 0, cells)
	for c := 0; c < cells; c++ {
		var meds []float64
		for _, r := range rounds {
			if len(r[c]) > 0 {
				meds = append(meds, median(r[c]))
			}
		}
		if len(meds) > 0 {
			perCell = append(perCell, fastQuartile(meds))
		}
	}
	return geomean(perCell)
}

// roundP90 is query_p90_ms: the lower quartile over rounds of each round's
// pooled nearest-rank p90.
func roundP90(rounds [][]float64) float64 {
	p := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		if len(r) > 0 {
			p = append(p, percentile(r, 0.90))
		}
	}
	return fastQuartile(p)
}
