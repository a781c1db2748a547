package simcache

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var golden = Key{Sweep: "bounds/scan", Point: 3, Seed: 1, Shards: 4, Batch: true, Congestion: false, Version: "vcs:deadbeef"}

// TestKeyHashGolden pins the key encoding: the hash must be this exact
// string on every platform and run. If this test fails the encoding
// changed, which silently orphans every persisted cache entry — bump the
// "simcache/v4" tag deliberately and update the constant here if that is
// intended. (v1 → v2 added the Mapping field, v2 → v3 the Machine backend
// field, v3 → v4 dropped the Mapping field again; the older generations'
// entries were orphaned on purpose.)
func TestKeyHashGolden(t *testing.T) {
	const want = "8ea9ef0a06ca2c9bbd3cafc2f3567aa5f56b7a39a955cae1365e06873b1844e0"
	if got := golden.Hash(); got != want {
		t.Errorf("golden key hash drifted:\n got  %s\n want %s", got, want)
	}
	if got := golden.Hash(); got != golden.Hash() {
		t.Error("Hash is not deterministic across calls")
	}
}

// TestKeyHashSensitivity: every field of the key must change the address.
// A field that doesn't is a stale-hit correctness bug waiting to happen —
// e.g. serving seed-1 rows to a seed-2 run.
func TestKeyHashSensitivity(t *testing.T) {
	base := golden.Hash()
	mutations := map[string]Key{
		"sweep":      {Sweep: "bounds/sort", Point: 3, Seed: 1, Shards: 4, Batch: true, Version: "vcs:deadbeef"},
		"point":      {Sweep: "bounds/scan", Point: 4, Seed: 1, Shards: 4, Batch: true, Version: "vcs:deadbeef"},
		"seed":       {Sweep: "bounds/scan", Point: 3, Seed: 2, Shards: 4, Batch: true, Version: "vcs:deadbeef"},
		"shards":     {Sweep: "bounds/scan", Point: 3, Seed: 1, Shards: 8, Batch: true, Version: "vcs:deadbeef"},
		"batch":      {Sweep: "bounds/scan", Point: 3, Seed: 1, Shards: 4, Batch: false, Version: "vcs:deadbeef"},
		"congestion": {Sweep: "bounds/scan", Point: 3, Seed: 1, Shards: 4, Batch: true, Congestion: true, Version: "vcs:deadbeef"},
		"machine":    {Sweep: "bounds/scan", Point: 3, Seed: 1, Shards: 4, Batch: true, Machine: "mesh:16x16:4", Version: "vcs:deadbeef"},
		"version":    {Sweep: "bounds/scan", Point: 3, Seed: 1, Shards: 4, Batch: true, Version: "vcs:cafef00d"},
	}
	seen := map[string]string{base: "base"}
	for field, k := range mutations {
		h := k.Hash()
		if h == base {
			t.Errorf("changing %s did not change the key hash", field)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("keys %s and %s collide", field, prev)
		}
		seen[h] = field
	}
}

// TestKeyHashUnambiguousEncoding: string fields are length-prefixed, so
// shifting bytes between adjacent fields must not produce the same address.
func TestKeyHashUnambiguousEncoding(t *testing.T) {
	a := Key{Sweep: "ab", Version: "c"}
	b := Key{Sweep: "a", Version: "bc"}
	if a.Hash() == b.Hash() {
		t.Error("concatenation-ambiguous keys collide")
	}
}

func sampleRows() []Row {
	return []Row{
		{"scan", 256, int64(511), 1.5, true},
		{4096, float64(1 << 62), math.Copysign(0, -1), 0.1 + 0.2}, // values JSON numbers would mangle
	}
}

func TestCodecRoundTripsExactly(t *testing.T) {
	rows := sampleRows()
	data, err := encodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRows(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("round trip changed rows:\n got  %#v\n want %#v", got, rows)
	}
	// -0.0 survives with its sign (DeepEqual can't see the difference).
	if v := got[1][2].(float64); !math.Signbit(v) {
		t.Error("negative zero lost its sign bit")
	}
}

func TestCodecRejectsUnknownTypes(t *testing.T) {
	if _, err := encodeRows([]Row{{struct{}{}}}); err == nil {
		t.Error("encode accepted a struct cell")
	}
}

func TestCacheMemoryRoundTrip(t *testing.T) {
	c := New(Memory(), 0)
	k := Key{Sweep: "s", Point: 1, Seed: 1, Version: "v"}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(k, sampleRows()); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !reflect.DeepEqual(got, sampleRows()) {
		t.Fatalf("Get after Put = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 store", st)
	}
}

// TestCacheDiskSurvivesLRU: an entry evicted from the LRU must still be
// served from the directory backend — and repopulate the LRU on the way.
func TestCacheDiskSurvivesLRU(t *testing.T) {
	backend, err := Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New(backend, 2)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = Key{Sweep: "s", Point: i, Version: "v"}
		if err := c.Put(keys[i], []Row{{i}}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("LRU holds %d entries, want 2", c.Len())
	}
	for i, k := range keys {
		rows, ok := c.Get(k)
		if !ok || rows[0][0] != i {
			t.Fatalf("key %d: rows=%v ok=%v after eviction", i, rows, ok)
		}
	}
	if st := c.Stats(); st.Errors != 0 {
		t.Errorf("backend errors: %+v", st)
	}
}

// TestCacheDiskPersistsAcrossInstances mimics two CLI invocations sharing
// -cache DIR: a second cache over the same directory serves the first
// one's entries.
func TestCacheDiskPersistsAcrossInstances(t *testing.T) {
	dirPath := t.TempDir()
	b1, _ := Dir(dirPath)
	c1 := New(b1, 0)
	k := Key{Sweep: "persist", Point: 7, Seed: 3, Version: "v"}
	if err := c1.Put(k, sampleRows()); err != nil {
		t.Fatal(err)
	}
	b2, _ := Dir(dirPath)
	c2 := New(b2, 0)
	got, ok := c2.Get(k)
	if !ok || !reflect.DeepEqual(got, sampleRows()) {
		t.Fatalf("second instance: rows=%v ok=%v", got, ok)
	}
}

// TestCacheCorruptFileIsMiss: a truncated/garbage document degrades to a
// miss (and counts an error), never to wrong rows.
func TestCacheCorruptFileIsMiss(t *testing.T) {
	dirPath := t.TempDir()
	backend, _ := Dir(dirPath)
	c := New(backend, 0)
	k := Key{Sweep: "corrupt", Version: "v"}
	if err := c.Put(k, sampleRows()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirPath, k.Hash()+".json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Evict the good in-memory copy by rebuilding the front.
	c = New(backend, 0)
	if _, ok := c.Get(k); ok {
		t.Fatal("corrupt backend entry served as a hit")
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 error", st)
	}
}

func TestCacheNilBackend(t *testing.T) {
	c := New(nil, 2)
	k := Key{Sweep: "mem-only"}
	if err := c.Put(k, []Row{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Error("nil-backend cache lost its entry")
	}
}

func TestCodeVersionStableAndNonEmpty(t *testing.T) {
	v := CodeVersion()
	if v == "" {
		t.Fatal("empty code version")
	}
	if v != CodeVersion() {
		t.Error("CodeVersion changed between calls")
	}
	if !strings.HasPrefix(v, "vcs:") && !strings.HasPrefix(v, "exe:") && v != "dev" {
		t.Errorf("unexpected version shape %q", v)
	}
}
