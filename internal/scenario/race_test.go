//go:build race

package scenario_test

// raceEnabled lets scale tests skip under the race detector, where they
// run an order of magnitude slower.
const raceEnabled = true
