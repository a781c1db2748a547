//go:build race

package main

// raceEnabled lets the full-sweep tests detect the race detector (roughly a
// 10x slowdown) and skip sweeps that would exceed the test timeout.
const raceEnabled = true
