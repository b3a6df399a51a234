//go:build race

package report

// raceEnabled: under the race detector the standard library's sync.Pools drop
// items at random, so an allocation count that depends on them is not a
// constant.
const raceEnabled = true
