package memo

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"streamscale/internal/engine"
	"streamscale/internal/metrics"
)

func fakeResult(app string, events int64) *engine.Result {
	h := metrics.NewHistogram(64)
	for i := int64(0); i < events%50+3; i++ {
		h.Observe(float64(i) / 4)
	}
	return &engine.Result{
		App: app, System: "storm",
		SourceEvents: events, SinkEvents: events - 1,
		ElapsedSeconds: 1.5, Latency: h,
	}
}

func TestDoRunsOncePerKey(t *testing.T) {
	s := New("fp-test")
	runs := 0
	run := func() (*engine.Result, error) { runs++; return fakeResult("wc", 100), nil }

	a, err := s.Do("cell-a", run)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Do("cell-a", run)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("repeated Do returned distinct results")
	}
	if runs != 1 {
		t.Fatalf("run executed %d times, want 1", runs)
	}
	st := s.Stats()
	if st.Runs != 1 || st.MemHits != 1 {
		t.Fatalf("stats = %+v, want Runs=1 MemHits=1", st)
	}
	if _, err := s.Do("cell-b", run); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("distinct canonical did not run; runs = %d", runs)
	}
}

func TestDoSingleFlightConcurrent(t *testing.T) {
	s := New("fp-test")
	const waiters = 16
	var mu sync.Mutex
	runs := 0
	gate := make(chan struct{})
	run := func() (*engine.Result, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		<-gate // hold the entry in flight until every waiter has joined
		return fakeResult("wc", 7), nil
	}

	results := make([]*engine.Result, waiters)
	var wg sync.WaitGroup
	var joined sync.WaitGroup
	joined.Add(waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			joined.Done()
			res, err := s.Do("hot-cell", run)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	joined.Wait()
	close(gate)
	wg.Wait()

	if runs != 1 {
		t.Fatalf("concurrent Do executed run %d times, want 1", runs)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different result pointer", i)
		}
	}
}

func TestDoMemoizesErrorsInMemoryOnly(t *testing.T) {
	s := New("fp-test")
	dir := t.TempDir()
	if _, err := s.AttachDisk(dir); err != nil {
		t.Fatal(err)
	}
	runs := 0
	boom := errors.New("boom")
	run := func() (*engine.Result, error) { runs++; return nil, boom }

	if _, err := s.Do("bad-cell", run); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := s.Do("bad-cell", run); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want memoized boom", err)
	}
	if runs != 1 {
		t.Fatalf("failing run executed %d times, want 1", runs)
	}
	if n := countCacheFiles(t, dir); n != 0 {
		t.Fatalf("error was persisted: %d cache files", n)
	}
	// A fresh process (Reset) must retry, not replay the error from disk.
	s.Reset()
	if _, err := s.Do("bad-cell", run); !errors.Is(err, boom) {
		t.Fatalf("post-reset err = %v", err)
	}
	if runs != 2 {
		t.Fatalf("post-reset run count = %d, want 2", runs)
	}
}

func TestDiskRoundTripAndWarmLoad(t *testing.T) {
	dir := t.TempDir()
	s := New("fp-disk")
	if _, err := s.AttachDisk(dir); err != nil {
		t.Fatal(err)
	}
	want := fakeResult("fd", 1234)
	cold, err := s.Do("cell-disk", func() (*engine.Result, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if cold != want {
		t.Fatalf("cold Do did not return the run's result")
	}
	if n := countCacheFiles(t, dir); n != 1 {
		t.Fatalf("cache files = %d, want 1", n)
	}

	s.Reset() // simulate a new process of the same build
	warm, err := s.Do("cell-disk", func() (*engine.Result, error) {
		t.Fatal("warm Do re-ran the simulation")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, warm) {
		t.Fatalf("disk round trip changed the result:\n have %+v\n got  %+v", want, warm)
	}
	st := s.Stats()
	if st.DiskHits != 1 || st.Runs != 0 {
		t.Fatalf("stats = %+v, want DiskHits=1 Runs=0", st)
	}
}

// wireHistogram gob-encodes as a metrics.Histogram whose wire state is the
// gob encoding of w, whatever that state is.
type wireHistogram struct {
	w struct {
		Bits, Base  int
		Counts      []int64
		Zero, Count int64
		Sum, SumSq  float64
		Min, Max    float64
	}
}

func (h *wireHistogram) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(h.w)
	return buf.Bytes(), err
}

// TestDiskCorruptHistogramIsAMiss: a cache file whose result carries a
// histogram no run produces (a precision of -5 or 70 bits, or a window
// based at -2^40, each of which crashed its reader) counts one DiskErrors
// and is simulated again, and the run's result replaces the file.
func TestDiskCorruptHistogramIsAMiss(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(h *wireHistogram)
	}{
		{"bits -5", func(h *wireHistogram) { h.w.Bits = -5 }},
		{"bits 70", func(h *wireHistogram) { h.w.Bits = 70 }},
		{"base -2^40", func(h *wireHistogram) { h.w.Base = -1 << 40 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := New("fp-corrupt")
			if _, err := s.AttachDisk(dir); err != nil {
				t.Fatal(err)
			}
			lat := &wireHistogram{}
			lat.w.Bits, lat.w.Base, lat.w.Counts, lat.w.Count = 8, 100, []int64{2, 1}, 3
			c.corrupt(lat)
			f, err := os.Create(cachePath(dir, s.Key("cell")))
			if err != nil {
				t.Fatal(err)
			}
			enc := gob.NewEncoder(f)
			if err := enc.Encode(header{Fingerprint: s.Fingerprint(), Canonical: "cell"}); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(struct {
				App     string
				Latency *wireHistogram
			}{"wc", lat}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			want := fakeResult("wc", 7)
			got, err := s.Do("cell", func() (*engine.Result, error) { return want, nil })
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); got != want || st.Runs != 1 || st.DiskErrors != 1 || st.DiskHits != 0 {
				t.Fatalf("stats = %+v, want one disk error and one run that served the result", st)
			}
			s.Reset()
			if _, err := s.Do("cell", func() (*engine.Result, error) {
				t.Fatal("the rewritten cache file was not served")
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAttachDiskPrunesOtherBuilds(t *testing.T) {
	dir := t.TempDir()
	old := New("fp-old")
	if _, err := old.AttachDisk(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c := fmt.Sprintf("cell-%d", i)
		if _, err := old.Do(c, func() (*engine.Result, error) { return fakeResult("wc", int64(i)), nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Garbage that merely wears the extension must go too.
	if err := os.WriteFile(dir+"/junk"+cacheExt, []byte("not gob"), 0o666); err != nil {
		t.Fatal(err)
	}

	cur := New("fp-new")
	pruned, err := cur.AttachDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 4 {
		t.Fatalf("pruned = %d, want 4 (3 stale + 1 garbage)", pruned)
	}
	if n := countCacheFiles(t, dir); n != 0 {
		t.Fatalf("stale files survived: %d", n)
	}

	// Same build re-attaching prunes nothing.
	if _, err := cur.Do("cell-x", func() (*engine.Result, error) { return fakeResult("lg", 5), nil }); err != nil {
		t.Fatal(err)
	}
	again := New("fp-new")
	if pruned, err = again.AttachDisk(dir); err != nil || pruned != 0 {
		t.Fatalf("re-attach pruned %d (err %v), want 0", pruned, err)
	}
}

func TestAttachDiskRequiresFingerprint(t *testing.T) {
	s := New("")
	if _, err := s.AttachDisk(t.TempDir()); err == nil {
		t.Fatal("AttachDisk accepted an unfingerprinted store")
	}
	// In-memory memoization still works.
	if _, err := s.Do("c", func() (*engine.Result, error) { return fakeResult("wc", 1), nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDoDetectsKeyCollision(t *testing.T) {
	s := New("fp-test")
	// A real SHA-256 collision is unreachable; plant one.
	e := &entry{canonical: "other-cell", done: make(chan struct{})}
	close(e.done)
	s.mu.Lock()
	s.entries[s.Key("this-cell")] = e
	s.mu.Unlock()
	if _, err := s.Do("this-cell", func() (*engine.Result, error) { return fakeResult("wc", 1), nil }); err == nil {
		t.Fatal("collision went undetected")
	}
}

func TestKeyDependsOnFingerprint(t *testing.T) {
	a, b := New("fp-a"), New("fp-b")
	if a.Key("cell") == b.Key("cell") {
		t.Fatal("key ignores the build fingerprint")
	}
	if a.Key("cell") != New("fp-a").Key("cell") {
		t.Fatal("key is not deterministic")
	}
}

func countCacheFiles(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if isCacheFile(de.Name()) {
			n++
		}
	}
	return n
}
