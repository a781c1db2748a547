package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer's public function,
// timed from outside the program. Parent is 0 for a root span; a root
// span is one lane of the workload (the timed section itself, or one
// client of the daemon).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Job     string `json:"job"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Counters measured over the span: simulated messages (when the call
	// reports them), heap objects and bytes allocated by the whole process
	// while the span was open, and the daemon's JobInfo.CacheHits.
	Msgs      int64  `json:"msgs,omitempty"`
	Objects   uint64 `json:"heap_objects"`
	Bytes     uint64 `json:"heap_bytes"`
	CacheHits int    `json:"cache_hits,omitempty"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so the timed code is the same
// in both runs apart from a nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// heapAllocs reads the cumulative heap allocation counters. runtime/metrics
// does not stop the world, unlike runtime.ReadMemStats.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(parent int, name, layer, job string) int {
	if r == nil {
		return 0
	}
	obj, b := heapAllocs()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Job: job,
		StartNS: int64(time.Since(r.t0)), Objects: obj, Bytes: b})
	return id
}

// end closes span id and attaches its message and cache-hit counters.
func (r *recorder) end(id int, msgs int64, hits int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	obj, b := heapAllocs()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = now
	s.Objects, s.Bytes = obj-s.Objects, b-s.Bytes
	s.Msgs, s.CacheHits = msgs, hits
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by the union of its children. Children that overlap
// each other (concurrent calls) are counted once, and any part of a child
// outside its parent is ignored. For a tree whose siblings never overlap,
// the self times sum exactly to the root durations.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.StartNS, s.EndNS, kids[s.ID])
	}
	return self
}

// covered measures the union of intervals clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// tableRow aggregates the spans sharing one name.
type tableRow struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	Msgs   int64   `json:"msgs"`
}

// selfTable groups spans by name, in order of decreasing self time.
func selfTable(spans []span, self []int64) []tableRow {
	byName := make(map[string]*tableRow)
	var rows []*tableRow
	for i, s := range spans {
		r, ok := byName[s.Name]
		if !ok {
			r = &tableRow{Name: s.Name, Layer: s.Layer}
			byName[s.Name] = r
			rows = append(rows, r)
		}
		r.Calls++
		r.TotalS += float64(s.dur()) / 1e9
		r.SelfS += float64(self[i]) / 1e9
		r.Msgs += s.Msgs
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfS > rows[j].SelfS })
	out := make([]tableRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

// sums returns the summed self time of every span and the summed
// duration of the root spans. They agree unless spans nest wrongly or
// siblings overlap.
func sums(spans []span, self []int64) (selfSum, rootSum float64) {
	for i, s := range spans {
		selfSum += float64(self[i]) / 1e9
		if s.Parent == 0 {
			rootSum += float64(s.dur()) / 1e9
		}
	}
	return selfSum, rootSum
}

// writeSpans writes the raw spans as JSON, one run per file.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable renders the per-span self-time table.
func printTable(w io.Writer, rows []tableRow) {
	fmt.Fprintf(w, "  %-46s %-12s %7s %10s %10s %14s\n", "span", "layer", "calls", "total_s", "self_s", "sim_msgs")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-46s %-12s %7d %10.4f %10.4f %14d\n", r.Name, r.Layer, r.Calls, r.TotalS, r.SelfS, r.Msgs)
	}
}
