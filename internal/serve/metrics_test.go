package serve

import (
	"testing"
	"time"
)

// TestHistQuantileNearestRank pins the percentile rank to the nearest
// rank, ceil(q·n): with 148 fast requests and 2 slow ones, the 99th
// percentile is the 149th request, which is slow.
func TestHistQuantileNearestRank(t *testing.T) {
	var hist [64]int64
	hist[10], hist[20] = 148, 2
	fast, slow := time.Duration(1)<<10, time.Duration(1)<<20
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, fast}, {0.95, fast}, {0.99, slow}} {
		if got := histQuantile(&hist, 150, c.q); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.q*100, got, c.want)
		}
	}
}
