package main

import _ "embed"

// Golden copies of the simulated costs and verdict documents at the
// default seed. The verdict documents are the bytes of
//
//	boundcheck -quick -json -parallel 1 -shards 1
//	boundcheck -quick -json -parallel 1 -shards 1 -run table1/
//
// and the large-n costs are the lines a large-n run prints to standard
// error (see README.md for how to refresh them).
var (
	//go:embed golden/conformance-quick-seed1.json
	goldenConformance []byte
	//go:embed golden/daemon-table1-seed1.json
	goldenTable1 []byte
	//go:embed golden/largen-costs.json
	goldenLargeNJSON []byte
)
