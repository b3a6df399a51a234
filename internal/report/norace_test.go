//go:build !race

package report

const raceEnabled = false
