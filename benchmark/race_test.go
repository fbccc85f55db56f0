//go:build race

package main

// raceEnabled: the race runtime's C frames hide the Go callers of many
// profile samples, so attribution shares are not checked under -race.
const raceEnabled = true
