package memo

import (
	"os"
	"reflect"
	"testing"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/metrics"
	"streamscale/internal/profiler"
	"streamscale/internal/sim"
)

// roundTrip writes res with writeCacheFile and reads it back through
// loadDisk, the one decoder a cache file reaches.
func roundTrip(t *testing.T, res *engine.Result) *engine.Result {
	t.Helper()
	dir := t.TempDir()
	s := New("fp-codec")
	key := s.Key("cell")
	f, err := os.Create(cachePath(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCacheFile(f, header{Fingerprint: s.Fingerprint(), Canonical: "cell"}, res); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, ok := s.loadDisk(dir, key, "cell")
	if !ok {
		t.Fatalf("decode missed; stats %+v", s.Stats())
	}
	return got
}

func sampleHistogram(seed int, n int) *metrics.Histogram {
	h := metrics.NewHistogram(128)
	for i := 0; i < n; i++ {
		h.Observe(float64((i*seed)%251) / 7)
	}
	return h
}

func sampleProfile(seed int) *profiler.Profile {
	p := profiler.New()
	var v hw.CostVec
	for b := hw.Bucket(0); b < hw.NumBuckets; b++ {
		v[b] = sim.Cycles(int64(seed) * (int64(b) + 3))
	}
	p.Add(&v)
	p.GCCycles = sim.Cycles(int64(seed) * 17)
	for i := 0; i < 40*seed; i++ {
		p.NoteFootprint(i * 64)
	}
	return p
}

// TestResultCacheFileRoundTrip populates every Result field, including
// nested histograms and per-operator profiles, and requires the cache
// file to decode deep-equal to the original.
func TestResultCacheFileRoundTrip(t *testing.T) {
	r := &engine.Result{
		App:            "WC",
		System:         "storm",
		SourceEvents:   123456,
		SinkEvents:     120001,
		ElapsedSeconds: 12.75,
		WallSeconds:    3.25,
		Latency:        sampleHistogram(3, 500),
		Profile:        sampleProfile(2),
		ChargedCycles:  987654321,
		OperatorProfiles: map[string]*profiler.Profile{
			"split":   sampleProfile(3),
			"count":   sampleProfile(5),
			"monitor": sampleProfile(7),
		},
		CPUUtil:        0.82,
		MemUtil:        0.41,
		QPIBytes:       1 << 30,
		AckerCompleted: 119998,
		MinorGCs:       42,
		GCShare:        0.07,
		Executors: []engine.ExecStat{
			{Op: "split", Index: 0, Socket: 0, Tuples: 61000, MeanTupleMs: 0.02,
				Invocations: 6100, Costs: sampleProfile(4).Costs},
			{Op: "split", Index: 1, Socket: 1, Tuples: 59001, MeanTupleMs: 0.021,
				Invocations: 5900, Costs: sampleProfile(6).Costs},
			{Op: "count", Index: 0, Socket: -1, Tuples: 120001, MeanTupleMs: 0.005},
		},
		Edges: []engine.EdgeStat{
			{From: 0, To: 2, Msgs: 6100, Tuples: 61000, Bytes: 2440000},
			{From: 1, To: 2, Msgs: 5900, Tuples: 59001, Bytes: 2360040},
		},
	}
	if got := roundTrip(t, r); !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip not lossless:\n have %+v\n got  %+v", r, got)
	}
}

// TestResultCacheFileNilPointers checks the sparse shapes the native
// runtime produces (no profile, no operator breakdown) survive the round
// trip.
func TestResultCacheFileNilPointers(t *testing.T) {
	r := &engine.Result{
		App:            "FD",
		System:         "native",
		SourceEvents:   10,
		ElapsedSeconds: 1,
		Latency:        metrics.NewHistogram(0), // empty: ±Inf min/max sentinels
	}
	if got := roundTrip(t, r); !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip not lossless:\n have %+v\n got  %+v", r, got)
	}
}
