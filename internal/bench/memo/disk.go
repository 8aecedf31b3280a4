package memo

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"streamscale/internal/engine"
)

// cacheExt is the persistent cache file suffix. A file holds one gob
// stream of two values: a header (fingerprint + canonical cell string)
// followed by the engine.Result, so pruning can decide a file's fate from
// the header alone without decoding the result.
const cacheExt = ".dspcache"

// header identifies what a cache file holds and which build produced it.
type header struct {
	Fingerprint string
	Canonical   string
}

// AttachDisk attaches a persistent layer rooted at dir, creating the
// directory if needed, and prunes cache files left by other builds (their
// results describe a different simulator and can never be served again —
// the fingerprint is part of every key). It returns the number of files
// pruned. Attaching requires a non-empty fingerprint: without one the
// store cannot tell its own files from a stale build's.
func (s *Store) AttachDisk(dir string) (pruned int, err error) {
	if s.fingerprint == "" {
		return 0, fmt.Errorf("memo: cannot attach %s: store has no build fingerprint", dir)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return 0, err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"+cacheExt))
	if err != nil {
		return 0, err
	}
	for _, name := range names {
		h, ok := readHeader(name)
		if !ok || h.Fingerprint != s.fingerprint {
			if os.Remove(name) == nil {
				pruned++
			}
		}
	}
	s.mu.Lock()
	s.dir = dir
	s.stats.Pruned += int64(pruned)
	s.mu.Unlock()
	return pruned, nil
}

// Dir returns the attached cache directory ("" when in-memory only).
func (s *Store) Dir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dir
}

func cachePath(dir, key string) string {
	return filepath.Join(dir, key+cacheExt)
}

// readHeader decodes only the leading header of a cache file; a missing
// or undecodable header reports false (the file is garbage to us).
func readHeader(name string) (header, bool) {
	f, err := os.Open(name)
	if err != nil {
		return header{}, false
	}
	defer f.Close()
	var h header
	if err := gob.NewDecoder(f).Decode(&h); err != nil {
		return header{}, false
	}
	return h, true
}

// loadDisk serves key from the attached directory if a file for it exists
// and its header matches this build and canonical string exactly.
func (s *Store) loadDisk(dir, key, canonical string) (*engine.Result, bool) {
	f, err := os.Open(cachePath(dir, key))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	dec := gob.NewDecoder(f)
	var h header
	if err := dec.Decode(&h); err != nil {
		s.noteDiskError()
		return nil, false
	}
	if h.Fingerprint != s.fingerprint || h.Canonical != canonical {
		// Stale build or (vanishingly unlikely) key collision; ignore the
		// file, the run will overwrite it.
		return nil, false
	}
	var res engine.Result
	if err := dec.Decode(&res); err != nil {
		s.noteDiskError()
		return nil, false
	}
	return &res, true
}

// storeDisk writes key's result atomically: encode to a temp file in the
// same directory, then rename over the final path, so a concurrent reader
// (another dspreport against the same cache) never sees a torn file.
func (s *Store) storeDisk(dir, key, canonical string, res *engine.Result) error {
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = writeCacheFile(tmp, header{Fingerprint: s.fingerprint, Canonical: canonical}, res)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), cachePath(dir, key))
}

func writeCacheFile(w io.Writer, h header, res *engine.Result) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(h); err != nil {
		return err
	}
	return enc.Encode(res)
}

func (s *Store) noteDiskError() {
	s.mu.Lock()
	s.stats.DiskErrors++
	s.mu.Unlock()
}

// isCacheFile reports whether a directory entry name looks like one of
// ours; used by tests to count live cache files.
func isCacheFile(name string) bool { return strings.HasSuffix(name, cacheExt) }
