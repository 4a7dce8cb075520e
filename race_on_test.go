//go:build race

package mobiletraffic

// raceEnabled reports a -race build. The race detector allocates on its
// own, so allocation pins skip under it; they run in the plain build.
const raceEnabled = true
