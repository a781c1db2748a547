package machine

import "repro/internal/fabric"

// Hooks for the external machine_test package.

// SetShardMin sets the smallest Par round m delivers across shards, so that
// tests shard the small rounds of their workloads too.
func SetShardMin(m *Machine, n int) { m.shardMin = n }

// LinkLoads returns the congestion tracker's nonzero link loads.
func LinkLoads(m *Machine) map[fabric.Coord][4]int64 { return linkLoads(m) }
