//go:build race

package serve_test

// raceAllocs is what the race detector's instrumentation adds to the
// allocations of one held q6 execution.
const raceAllocs = 5
