// Package simcache is a content-addressed store for simulation results.
//
// Every measurement in this repository is byte-deterministic: a sweep
// point's rows are a pure function of (sweep name, point index, base seed,
// machine configuration, code version). That makes results perfectly
// cacheable — a hit is not an approximation of a fresh run, it *is* the
// fresh run's output — so repeated conformance checks and benchmark sweeps
// can skip simulation entirely.
//
// The cache is layered: a small in-memory LRU of decoded rows fronts a
// pluggable Backend holding one encoded JSON document per key (Memory for
// tests and single-process reuse, Dir for flat files that persist across
// processes and CI runs). Keys are hashed content addresses; see Key for
// what goes into one and DESIGN.md for why each field is there.
package simcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Row mirrors harness.Row (a slice of table cells) without importing the
// harness, which imports this package.
type Row = []any

// Key identifies one sweep point's result. Every field that could change
// the produced rows — or that an operator could plausibly *believe*
// changes them — is part of the address:
//
//   - Sweep, Point, Seed determine the point's workload (the harness
//     derives the point RNG from exactly these).
//   - Shards, Batch and Congestion are machine options. Sharding and
//     batched sends are proven output-invariant (internal/machine), but
//     they stay in the key anyway: a stale hit that masked a
//     shard-invariance regression would be a correctness bug dressed as a
//     speedup, so the key is conservative. Congestion tracking genuinely
//     changes what some sweeps report (MaxCongestion columns).
//   - Machine is the canonical spec of the machine backend the point ran
//     on (machine.Backend.String(): "ideal", "mesh:WxH[:block]",
//     "torus:WxH[:block]"). Finite backends charge different costs for the
//     same computation, so rows measured on different fabrics must never
//     alias. "" and "ideal" are distinct encodings of the same backend;
//     callers canonicalize (the harness always writes the String() form).
//   - Version pins the code that produced the rows; see CodeVersion.
type Key struct {
	Sweep      string
	Point      int
	Seed       int64
	Shards     int
	Batch      bool
	Congestion bool
	Machine    string
	Version    string
}

// Hash returns the key's content address: a hex SHA-256 over an
// unambiguous (length-prefixed) encoding of every field. Two distinct keys
// cannot collide by concatenation tricks ("ab"+"c" vs "a"+"bc"), and the
// encoding never changes silently — the golden test in this package pins
// it.
func (k Key) Hash() string {
	h := sha256.New()
	writeStr := func(s string) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		io.WriteString(h, s)
	}
	writeInt := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	writeBool := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	writeStr("simcache/v4")
	writeStr(k.Sweep)
	writeInt(int64(k.Point))
	writeInt(k.Seed)
	writeInt(int64(k.Shards))
	writeBool(k.Batch)
	writeBool(k.Congestion)
	writeStr(k.Machine)
	writeStr(k.Version)
	return hex.EncodeToString(h.Sum(nil))
}

// Stats counts cache traffic. Errors counts backend failures (unreadable
// files, full disks); a failed Get is served as a miss and a failed Put is
// dropped, so errors degrade the cache to a slower one, never to a wrong
// one.
type Stats struct {
	Hits, Misses, Stores, Errors int64
}

// Cache is the in-memory LRU front over a Backend. Safe for concurrent
// use.
type Cache struct {
	backend Backend
	maxLRU  int

	mu  sync.Mutex
	lru *list.List // of *entry, most recent first
	idx map[string]*list.Element

	hits, misses, stores, errs atomic.Int64
}

type entry struct {
	hash string
	rows []Row
}

// New returns a cache over backend with an LRU holding up to maxEntries
// decoded results (maxEntries <= 0 means a default of 4096). A nil
// backend is valid: the LRU is then the only storage.
func New(backend Backend, maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &Cache{backend: backend, maxLRU: maxEntries, lru: list.New(), idx: make(map[string]*list.Element)}
}

// Get returns the rows stored under k. The returned outer slice is the
// caller's; the rows themselves are shared and must be treated as
// read-only (every consumer in this repository renders or fits them).
func (c *Cache) Get(k Key) ([]Row, bool) {
	hash := k.Hash()
	c.mu.Lock()
	if el, ok := c.idx[hash]; ok {
		c.lru.MoveToFront(el)
		rows := el.Value.(*entry).rows
		c.mu.Unlock()
		c.hits.Add(1)
		return append([]Row(nil), rows...), true
	}
	c.mu.Unlock()

	if c.backend != nil {
		data, ok, err := c.backend.Get(hash)
		if err != nil {
			c.errs.Add(1)
		} else if ok {
			rows, derr := decodeRows(data)
			if derr != nil {
				// A corrupt or stale-format file is a miss, not a failure:
				// the point re-simulates and Put overwrites the entry.
				c.errs.Add(1)
			} else {
				c.insert(hash, rows)
				c.hits.Add(1)
				return append([]Row(nil), rows...), true
			}
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores rows under k in both layers. Rows with cell types outside
// the supported set (string, int, int64, float64, bool) are rejected with
// an error and cached nowhere.
func (c *Cache) Put(k Key, rows []Row) error {
	data, err := encodeRows(rows)
	if err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	hash := k.Hash()
	c.insert(hash, append([]Row(nil), rows...))
	c.stores.Add(1)
	if c.backend != nil {
		if err := c.backend.Put(hash, data); err != nil {
			c.errs.Add(1)
			return fmt.Errorf("simcache: %w", err)
		}
	}
	return nil
}

func (c *Cache) insert(hash string, rows []Row) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[hash]; ok {
		el.Value.(*entry).rows = rows
		c.lru.MoveToFront(el)
		return
	}
	c.idx[hash] = c.lru.PushFront(&entry{hash: hash, rows: rows})
	for c.lru.Len() > c.maxLRU {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.idx, oldest.Value.(*entry).hash)
	}
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Stores: c.stores.Load(),
		Errors: c.errs.Load(),
	}
}

// Len reports how many entries the LRU currently holds.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// CodeVersion derives the Key.Version for the running binary. Preference
// order:
//
//  1. The VCS revision from build info, when the build was stamped from a
//     clean working tree — stable across rebuilds of the same commit,
//     which is what lets CI warm-start a cache persisted from an earlier
//     run of the same code.
//  2. A SHA-256 of the executable itself otherwise (dirty trees, test
//     binaries, stripped builds) — any code change reliably changes the
//     address, so a development loop can never be served stale rows.
//  3. "dev" as the last resort when even the executable is unreadable.
func CodeVersion() string {
	codeVersionOnce.Do(func() { codeVersion = computeCodeVersion() })
	return codeVersion
}

func computeCodeVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && !dirty {
			return "vcs:" + rev
		}
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return "exe:" + hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	return "dev"
}
