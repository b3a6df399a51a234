//go:build race

package analysis

// raceEnabled: under the race detector sync.Pool drops items at random, so an
// allocation count that depends on a warm pool is not a constant.
const raceEnabled = true
