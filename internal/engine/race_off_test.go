//go:build !race

package engine_test

// raceEnabled: see race_on_test.go.
const raceEnabled = false
