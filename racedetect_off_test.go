//go:build !race

package autobahn

const RaceDetector = false
