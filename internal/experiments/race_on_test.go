//go:build race

package experiments

// raceEnabled lets the contract matrix detect the race detector (roughly a
// 10x slowdown) and skip; the machine-level shared-sink test in
// internal/machine runs under -race and covers the shard concurrency.
const raceEnabled = true
