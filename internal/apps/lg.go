package apps

import (
	"fmt"

	"streamscale/internal/engine"
	"streamscale/internal/gen"
)

const (
	lgClients = 4096
	lgURLs    = 512
	// lgCountries is the size of the synthetic GeoIP space.
	lgCountries = 128
)

// LogProcessing builds the LG topology (Fig 5e): the source fans out to
// three analysis chains — geo finding (-> geo stats -> sink), status-code
// statistics (-> sink), and per-minute volume counting (-> sink).
func LogProcessing(cfg Config) *engine.Topology {
	cfg = cfg.Resolve()
	t := engine.NewTopology("lg")

	t.AddSource("source", 1, counted(cfg, func(seed int64) func(engine.Context) {
		g := gen.NewWeblogGen(seed, lgClients, lgURLs)
		return func(ctx engine.Context) {
			r := g.Next()
			ctx.Emit(r.IP, r.Timestamp, r.URL, r.Status, r.Bytes)
		}
	}), engine.Stream(engine.DefaultStream, "ip", "ts", "url", "status", "bytes")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        8 << 10,
			UopsPerTuple:     420,
			BranchesPerTuple: 10,
			AvgTupleBytes:    120,
		})

	t.AddOp("geo-finder", cfg.par(2), func() engine.Operator { return newGeoFinderOp() },
		engine.Stream(engine.DefaultStream, "country", "city")).
		SubDefault("source", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes:             10 << 10,
			UopsPerTuple:          480,
			UopsPerEmit:           80,
			BranchesPerTuple:      16,
			StateBytes:            512 << 10, // prefix -> location table
			StateAccessesPerTuple: 4,
			AvgTupleBytes:         48,
		})

	t.AddOp("geo-stats", cfg.par(1), func() engine.Operator { return newGeoStatsOp() },
		engine.Stream(engine.DefaultStream, "country", "cityCount", "total")).
		SubDefault("geo-finder", engine.Fields("country")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             8 << 10,
			UopsPerTuple:          300,
			UopsPerEmit:           90,
			BranchesPerTuple:      8,
			StateBytes:            4 << 20, // all countries and cities seen so far
			StateAccessesPerTuple: 5,
			AvgTupleBytes:         56,
		})

	t.AddOp("status-counter", cfg.par(1), func() engine.Operator { return newStatusCounterOp() },
		engine.Stream(engine.DefaultStream, "status", "count")).
		SubDefault("source", engine.Fields("status")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             6 << 10,
			UopsPerTuple:          200,
			UopsPerEmit:           70,
			BranchesPerTuple:      6,
			StateBytes:            4 << 10,
			StateAccessesPerTuple: 1,
			AvgTupleBytes:         40,
		})

	t.AddOp("volume-counter", cfg.par(1), func() engine.Operator { return newVolumeCounterOp() },
		engine.Stream(engine.DefaultStream, "minute", "count")).
		SubDefault("source", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes:             6 << 10,
			UopsPerTuple:          180,
			UopsPerEmit:           70,
			BranchesPerTuple:      5,
			StateBytes:            8 << 10,
			StateAccessesPerTuple: 1,
			Selectivity:           0.02, // one update per minute bucket roll
			AvgTupleBytes:         40,
		})

	t.AddOp("geo-sink", cfg.par(1), nopSink).
		SubDefault("geo-stats", engine.Global()).WithProfile(sinkProfile())
	t.AddOp("status-sink", cfg.par(1), nopSink).
		SubDefault("status-counter", engine.Global()).WithProfile(sinkProfile())
	t.AddOp("count-sink", cfg.par(1), nopSink).
		SubDefault("volume-counter", engine.Global()).WithProfile(sinkProfile())
	return t
}

// geoFinderOp maps an IP to a (country, city) via a deterministic prefix
// table, standing in for a GeoIP database lookup.
type geoFinderOp struct{}

func newGeoFinderOp() *geoFinderOp { return &geoFinderOp{} }

func (g *geoFinderOp) Prepare(engine.Context) {}
func (g *geoFinderOp) Process(ctx engine.Context, t engine.Tuple) {
	ip := t.Values[0].(string)
	country, city := GeoLocate(ip)
	ctx.Work(len(ip)*6, 8)
	ctx.Emit(country, city)
}

// GeoLocate deterministically maps an IP string to a country and city —
// the oracle shared by the operator and its tests.
func GeoLocate(ip string) (string, string) {
	var h uint32 = 2166136261
	for i := 0; i < len(ip); i++ {
		h = (h ^ uint32(ip[i])) * 16777619
	}
	c := h % lgCountries
	return fmt.Sprintf("country-%02d", c), fmt.Sprintf("city-%03d", h/lgCountries%37)
}

// geoStatsOp maintains all countries and cities seen so far (§III-C) and
// emits running statistics.
type geoStatsOp struct {
	perCountry map[string]map[string]int64
	totals     map[string]int64
}

func newGeoStatsOp() *geoStatsOp {
	return &geoStatsOp{
		perCountry: make(map[string]map[string]int64),
		totals:     make(map[string]int64),
	}
}

func (g *geoStatsOp) Prepare(engine.Context) {}
func (g *geoStatsOp) Process(ctx engine.Context, t engine.Tuple) {
	country := t.Values[0].(string)
	city := t.Values[1].(string)
	cities := g.perCountry[country]
	if cities == nil {
		cities = make(map[string]int64)
		g.perCountry[country] = cities
	}
	cities[city]++
	g.totals[country]++
	ctx.Emit(country, int64(len(cities)), g.totals[country])
}

// statusCounterOp counts HTTP status codes.
type statusCounterOp struct{ counts map[int]int64 }

func newStatusCounterOp() *statusCounterOp { return &statusCounterOp{counts: map[int]int64{}} }

func (s *statusCounterOp) Prepare(engine.Context) {}
func (s *statusCounterOp) Process(ctx engine.Context, t engine.Tuple) {
	code := t.Values[3].(int)
	s.counts[code]++
	ctx.Emit(code, s.counts[code])
}

// volumeCounterOp counts events per minute, emitting each completed bucket.
type volumeCounterOp struct {
	minute int64
	count  int64
}

func newVolumeCounterOp() *volumeCounterOp { return &volumeCounterOp{minute: -1} }

func (v *volumeCounterOp) Prepare(engine.Context) {}
func (v *volumeCounterOp) Process(ctx engine.Context, t engine.Tuple) {
	m := t.Values[1].(int64) / 60
	if m != v.minute {
		if v.minute >= 0 {
			ctx.Emit(v.minute, v.count)
		}
		v.minute, v.count = m, 0
	}
	v.count++
}

// Flush emits the final partial minute.
func (v *volumeCounterOp) Flush(ctx engine.Context) {
	if v.minute >= 0 && v.count > 0 {
		ctx.Emit(v.minute, v.count)
	}
}
