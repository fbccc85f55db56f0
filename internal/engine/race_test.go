//go:build race

package engine_test

// raceEnabled lets scenario-scale tests skip under the race detector,
// where they run an order of magnitude slower.
const raceEnabled = true
