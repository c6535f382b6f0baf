//go:build race

package engine_test

// raceEnabled reports whether this test binary runs under the race
// detector, whose instrumentation allocates on its own account — so
// allocation gates measure the detector, not the code. Those gates skip
// here and run in the dedicated non-race CI step instead.
const raceEnabled = true
