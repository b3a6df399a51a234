//go:build race

package main

// raceEnabled: the grid takes many minutes under the race detector, and the
// concurrency it drives, the experiments' fan-out, is raced by that
// package's own tests, so TestVerdictsGolden skips.
const raceEnabled = true
