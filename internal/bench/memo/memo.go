// Package memo is a content-addressed result cache for simulation cells.
// A cell's canonical serialization (bench.Cell.Canonical) is hashed
// together with a build fingerprint into a cache key; requests for the
// same key are single-flighted (concurrent and repeated requests simulate
// once and share the result) and, when a cache directory is attached,
// results persist across processes so an unchanged build replays a sweep
// from disk instead of re-simulating it.
//
// Keys are collision-checked: every lookup carries the full canonical
// string, and both the in-memory layer and the disk layer compare it
// against the stored one before serving a result, so a SHA-256 collision
// degrades to an error instead of a silently wrong table.
package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"streamscale/internal/engine"
)

// Store memoizes cell results. The zero value is not usable; construct
// with New. A Store is safe for concurrent use.
type Store struct {
	fingerprint string

	mu      sync.Mutex
	entries map[string]*entry
	dir     string // persistent layer root; "" = in-memory only

	stats Stats
}

// entry is one in-flight or completed cell. done is closed when res/err
// are valid; later requesters block on it instead of re-running.
type entry struct {
	canonical string
	done      chan struct{}
	res       *engine.Result
	err       error
}

// Stats counts what the store did. Runs is the number of simulations
// actually executed — the dedup tests pin shared cells to one run.
type Stats struct {
	// Runs counts executions of the underlying run function.
	Runs int64
	// MemHits counts requests served by an in-memory entry, including
	// single-flight joins that waited for an in-flight run.
	MemHits int64
	// DiskHits counts results loaded from the persistent layer.
	DiskHits int64
	// DiskErrors counts best-effort persistent-layer failures (unreadable
	// or unwritable cache files). They never fail a run.
	DiskErrors int64
	// Pruned counts stale cache files removed when the directory was
	// attached.
	Pruned int64
}

// New returns an in-memory store. fingerprint identifies the simulator
// build (see BuildFingerprint); it is mixed into every key, so results
// memoized by different builds never alias.
func New(fingerprint string) *Store {
	return &Store{
		fingerprint: fingerprint,
		entries:     make(map[string]*entry),
	}
}

// Fingerprint returns the build fingerprint the store keys under.
func (s *Store) Fingerprint() string { return s.fingerprint }

// Key returns the hex cache key for a canonical cell string: the SHA-256
// of the build fingerprint and the canonical serialization.
func (s *Store) Key(canonical string) string {
	h := sha256.New()
	h.Write([]byte(s.fingerprint))
	h.Write([]byte{0})
	h.Write([]byte(canonical))
	return hex.EncodeToString(h.Sum(nil))
}

// Do returns the result for the cell described by canonical, running run
// at most once per key: the first request executes it, concurrent
// requests for the same key block until it finishes, and later requests
// are served from memory (or from the attached directory, where results
// from previous processes of the same build live). Errors are memoized
// in-memory only and never persisted.
//
// If run panics, the cell is forgotten and the panic goes on to Do's
// caller: requests that were waiting for the run return an error naming
// the cell, and a later request runs the cell again.
//
// The returned Result is shared by every caller of the same key and must
// be treated as immutable.
func (s *Store) Do(canonical string, run func() (*engine.Result, error)) (*engine.Result, error) {
	key := s.Key(canonical)

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.stats.MemHits++
		s.mu.Unlock()
		<-e.done
		if e.canonical != canonical {
			return nil, fmt.Errorf("memo: key collision: %q vs %q", e.canonical, canonical)
		}
		return e.res, e.err
	}
	e := &entry{canonical: canonical, done: make(chan struct{})}
	s.entries[key] = e
	dir := s.dir
	s.mu.Unlock()

	if dir != "" {
		if res, ok := s.loadDisk(dir, key, canonical); ok {
			e.res = res
			close(e.done)
			s.mu.Lock()
			s.stats.DiskHits++
			s.mu.Unlock()
			return res, nil
		}
	}

	res, err := s.runEntry(key, e, run)
	e.res, e.err = res, err
	close(e.done)
	s.mu.Lock()
	s.stats.Runs++
	s.mu.Unlock()
	if err == nil && dir != "" {
		if werr := s.storeDisk(dir, key, canonical, res); werr != nil {
			s.mu.Lock()
			s.stats.DiskErrors++
			s.mu.Unlock()
		}
	}
	return res, err
}

// runEntry runs the cell of entry e. If run panics, it removes e from the
// store, releases e's waiters with an error naming the cell, and panics
// again with the same value.
func (s *Store) runEntry(key string, e *entry, run func() (*engine.Result, error)) (*engine.Result, error) {
	defer func() {
		if p := recover(); p != nil {
			s.mu.Lock()
			if s.entries[key] == e {
				delete(s.entries, key)
			}
			s.mu.Unlock()
			e.err = fmt.Errorf("memo: the run of cell %s panicked: %v", e.canonical, p)
			close(e.done)
			panic(p)
		}
	}()
	return run()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Reset drops every in-memory entry and zeroes the counters. The attached
// directory, if any, stays attached and keeps its files — Reset models a
// process restart, which the cold-vs-warm tests use.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[string]*entry)
	s.stats = Stats{}
}
