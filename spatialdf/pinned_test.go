package spatialdf

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// pinOps runs every facade operation on one small input each, sized off
// the powers of four so every padded layout is exercised, and returns the
// answer as text with the operation's Metrics.
var pinOps = []struct {
	name string
	run  func(opts ...Option) (string, Metrics)
}{
	{"Scan", func(opts ...Option) (string, Metrics) {
		out, met := Scan(pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"ScanWith", func(opts ...Option) (string, Metrics) {
		out, met := ScanWith(math.Max, math.Inf(-1), pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"SegmentedScan", func(opts ...Option) (string, Metrics) {
		vals := pinVals()
		heads := make([]bool, len(vals))
		for i := range heads {
			heads[i] = i%7 == 3
		}
		out, met, err := SegmentedScan(vals, heads, opts...)
		return fmt.Sprint(out, err), met
	}},
	{"ScanTree", func(opts ...Option) (string, Metrics) {
		out, met := ScanTree(pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"ScanSequential", func(opts ...Option) (string, Metrics) {
		out, met := ScanSequential(pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"Reduce", func(opts ...Option) (string, Metrics) {
		out, met := Reduce(pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"BroadcastCost", func(opts ...Option) (string, Metrics) {
		return "", BroadcastCost(70, opts...)
	}},
	{"Sort", func(opts ...Option) (string, Metrics) {
		out, met := Sort(pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"SortBitonic", func(opts ...Option) (string, Metrics) {
		out, met := SortBitonic(pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"SortMesh", func(opts ...Option) (string, Metrics) {
		out, met := SortMesh(pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"SortIndices", func(opts ...Option) (string, Metrics) {
		out, met := SortIndices(pinVals(), opts...)
		return fmt.Sprint(out), met
	}},
	{"Select", func(opts ...Option) (string, Metrics) {
		out, met, err := Select(pinVals(), 29, opts...)
		return fmt.Sprint(out, err), met
	}},
	{"Median", func(opts ...Option) (string, Metrics) {
		out, met, err := Median(pinVals(), opts...)
		return fmt.Sprint(out, err), met
	}},
	{"Permute", func(opts ...Option) (string, Metrics) {
		vals := pinVals()
		out, met, err := Permute(vals, rand.New(rand.NewSource(8)).Perm(len(vals)), opts...)
		return fmt.Sprint(out, err), met
	}},
	{"SpMV", func(opts ...Option) (string, Metrics) {
		a, x := pinMatrix()
		out, met, err := SpMV(a, x, opts...)
		return fmt.Sprint(out, err), met
	}},
	{"SpMVPRAM", func(opts ...Option) (string, Metrics) {
		a, x := pinMatrix()
		out, met, err := SpMVPRAM(a, x, opts...)
		return fmt.Sprint(out, err), met
	}},
	{"RootfixSum", func(opts ...Option) (string, Metrics) {
		out, met, err := pinTree().RootfixSum(pinVals()[:13], opts...)
		return fmt.Sprint(out, err), met
	}},
	{"LeaffixSum", func(opts ...Option) (string, Metrics) {
		out, met, err := pinTree().LeaffixSum(pinVals()[:13], opts...)
		return fmt.Sprint(out, err), met
	}},
	{"GNN", func(opts ...Option) (string, Metrics) {
		g := GNNGraph{Nodes: 10, Edges: []GraphEdge{
			{0, 1, 1}, {1, 2, 1}, {2, 3, 0.5}, {3, 0, 1}, {4, 5, 2}, {6, 7, 1}, {0, 4, 1}, {8, 9, 3}, {9, 2, 1},
		}}
		vals := pinVals()
		pooled, picked, met, err := GNN{Layers: 2, TopK: 4}.Forward(g, [][]float64{vals[:10], vals[10:20]}, opts...)
		return fmt.Sprint(pooled, picked, err), met
	}},
}

// pinVals is 70 values with repeats, one NaN and both infinities.
func pinVals() []float64 {
	rng := rand.New(rand.NewSource(21))
	vals := make([]float64, 70)
	for i := range vals {
		vals[i] = float64(rng.Intn(40)-20) / 4
	}
	vals[11], vals[40], vals[57] = math.NaN(), math.Inf(1), math.Inf(-1)
	return vals
}

func pinMatrix() (Matrix, []float64) {
	rng := rand.New(rand.NewSource(9))
	a := Matrix{N: 11}
	for i := 0; i < 30; i++ {
		a.Entries = append(a.Entries, MatrixEntry{Row: rng.Intn(11), Col: rng.Intn(11), Val: float64(rng.Intn(9) - 4)})
	}
	x := make([]float64, 11)
	for i := range x {
		x[i] = float64(rng.Intn(7) - 3)
	}
	return a, x
}

func pinTree() Tree {
	return Tree{Parent: []int{0, 0, 0, 1, 1, 2, 5, 5, 3, 8, 2, 10, 0}}
}

// TestFacadePinnedState pins every facade operation's answer and all six
// Metrics fields, under the default options and five others, to hashes
// recorded before the facade stopped recording every call's event stream
// and placed its inputs through grid.Place. The counting path on 2 and 4
// shards must reproduce the hashes of WithBatchSends alone.
func TestFacadePinnedState(t *testing.T) {
	mp, err := ParseMapping("track=hilbert,arity=2,tile=wide,sort=oddeven")
	if err != nil {
		t.Fatal(err)
	}
	configs := [8][]Option{
		nil,
		{WithBatchSends()},
		{WithCongestion()},
		{WithMemoryLimit(64)},
		{WithBackend("torus:4x4:2")},
		{WithMapping(mp)},
		{WithBatchSends(), WithShards(2)},
		{WithBatchSends(), WithShards(4)},
	}
	want := map[string][6]string{
		"Scan":           {"0xdb0f9ff0a76e8061", "0xeb88f5f0b0857d17", "0xdb0fa1f0a76e83c7", "0xdb0f9ff0a76e8061", "0x95b592b9a2c118cc", "0xe365dc031bacec79"},
		"ScanWith":       {"0xa7bd0080d1483954", "0x966a2a80c778725e", "0xa7bcfe80d14835ee", "0xa7bd0080d1483954", "0x3f2853797b28f1f5", "0x6ad99b5d1921e5c2"},
		"SegmentedScan":  {"0x17478bd768ace71", "0x356d5abd93fac673", "0x1747abd768ad1d7", "0x17478bd768ace71", "0x86173a62dc4b4a7f", "0x17478bd768ace71"},
		"ScanTree":       {"0xf1638de8f0d1479d", "0xe010b7e8e70180a7", "0xf16385e8f0d13a05", "0xf1638de8f0d1479d", "0xd9964dad5369ec7f", "0xf1638de8f0d1479d"},
		"ScanSequential": {"0x9cbeb6936e0bd6d1", "0x9cbeb6936e0bd6d1", "0x9cbeb5936e0bd51e", "0x9cbeb6936e0bd6d1", "0xde6416855e327ab3", "0x9cbeb6936e0bd6d1"},
		"Reduce":         {"0xb35db3d35b4ea631", "0xb35db3d35b4ea631", "0xb35dabd35b4e9899", "0xb35db3d35b4ea631", "0x1c0f274de33cf34b", "0x18bb814a8372edbd"},
		"BroadcastCost":  {"0x3d02f8b4cb2c9ee1", "0x3d02f8b4cb2c9ee1", "0x3d02f0b4cb2c9149", "0x3d02f8b4cb2c9ee1", "0xd74cc5faa56228a3", "0x3d02f8b4cb2c9ee1"},
		"Sort":           {"0x54cae2746bd15516", "0x54cae2746bd15516", "0x957b39e282db8ee6", "0x54cae2746bd15516", "0x80672702046cd3ca", "0x1d870ee2c104c4cc"},
		"SortBitonic":    {"0x147814a47d4efe1b", "0x1d212fa4823659a6", "0x17133880ed422d64", "0x147814a47d4efe1b", "0xf3d8af66cadd4718", "0x147814a47d4efe1b"},
		"SortMesh":       {"0xf5c88f36260e37bb", "0xfe722a362af66cc6", "0xb20d5402aa317406", "0xf5c88f36260e37bb", "0x61d6fbdd33f2438d", "0xf5c88f36260e37bb"},
		"SortIndices":    {"0x90676bc165404329", "0x90676bc165404329", "0x450341aff93e9a", "0x90676bc165404329", "0x50a8c169af35ebed", "0x90676bc165404329"},
		"Select":         {"0xc32edb263f649905", "0x41406625f5cc4040", "0xbcc0d194569ea7c6", "0xc32edb263f649905", "0xac74b4b514edac87", "0xc32edb263f649905"},
		"Median":         {"0xac5fbc09b5b49dc6", "0xace8509eaf3c4df", "0x3fb0703e8d8e137b", "0xac5fbc09b5b49dc6", "0x762972cfc08ce26d", "0xac5fbc09b5b49dc6"},
		"Permute":        {"0xf5e9ad7d8b58982", "0xf5e9ad7d8b58982", "0xf5e95d7d8b58103", "0xf5e9ad7d8b58982", "0x6c90c8fdac605be9", "0xf5e9ad7d8b58982"},
		"SpMV":           {"0x7f2c004b67e607e7", "0x984ef14b75e539a8", "0xfdb165218bc8a267", "0x7f2c004b67e607e7", "0xc794d70addb569df", "0x8b448e3d7310f1ad"},
		"SpMVPRAM":       {"0xc86ec5a5430ce4bd", "0x6e687a69a098a928", "0x61268f05c8c26e7e", "0xc86ec5a5430ce4bd", "0x3697379232cb68aa", "0xc86ec5a5430ce4bd"},
		"RootfixSum":     {"0x4138256134862937", "0x2f0bcf6129fd9801", "0x41382361348625d1", "0x4138256134862937", "0x3c53f0a4c8ed6a11", "0x4138256134862937"},
		"LeaffixSum":     {"0x87cea0693ca40747", "0x77554a69338d0a91", "0x87ce9e693ca403e1", "0x87cea0693ca40747", "0x5b5be34dba64ab21", "0x87cea0693ca40747"},
		"GNN":            {"0xb9f17f5c3dbca3c8", "0x9f1b8e5c2e4bdd87", "0xb216ecbce79e697a", "0xb9f17f5c3dbca3c8", "0x60967db59d6ae0cc", "0xb9f17f5c3dbca3c8"},
	}
	for _, op := range pinOps {
		var got, w [len(configs)]string
		recorded := want[op.name]
		copy(w[:], recorded[:])
		w[6], w[7] = w[1], w[1]
		for i, opts := range configs {
			ans, met := op.run(opts...)
			h := fnv.New64a()
			fmt.Fprintf(h, "%s\n%d %d %d %d %d %d", ans, met.Energy, met.Depth, met.Distance, met.Messages, met.PeakMemory, met.MaxLinkLoad)
			got[i] = fmt.Sprintf("%#x", h.Sum64())
		}
		if got != w {
			t.Errorf("%s: default/batch/congestion/memlimit/torus/mapping/batch+shards=2/batch+shards=4 %q, want %q", op.name, got, w)
		}
	}
}
