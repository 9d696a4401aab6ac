//go:build race

package serve

// raceDetector reports a -race build, whose sync.Pool drops some of
// what it is given, so a byte ceiling must allow for it.
const raceDetector = true
