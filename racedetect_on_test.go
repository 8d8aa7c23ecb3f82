//go:build race

package autobahn

// RaceDetector reports whether this test binary runs under the race
// detector, which slows ed25519 roughly tenfold: a commit's chain of
// signature checks alone then takes ~20 ms, and latency bounds scale.
// Exported so the external test package sees it too.
const RaceDetector = true
