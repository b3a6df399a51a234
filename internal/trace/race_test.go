//go:build race

package trace

// raceEnabled: the compiler folds slices.Grow's make-and-append into one
// allocation only when it is not instrumenting, so under the race detector
// a grow, such as the frame's through a nil Store's Reserve, allocates its
// temporary as well as the grown slice.
const raceEnabled = true
