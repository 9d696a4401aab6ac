//go:build !race

package serve

// raceDetector reports a -race build (see race_on_test.go).
const raceDetector = false
