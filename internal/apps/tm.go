package apps

import (
	"math"

	"streamscale/internal/engine"
	"streamscale/internal/gen"
)

// Traffic-monitoring sizing. Map matching scans a large road-network table
// per point, which is what gives TM the highest CPU and memory-bandwidth
// demand of the benchmark (Table IV: 98% CPU, 60% bandwidth).
const (
	tmGridRows = 1200
	tmGridCols = 1200
	tmVehicles = 200
	// tmIndexBytes is the shared spatial road index (R-tree nodes, road
	// headers): one object shared by all executors, so 3/4 of its
	// accesses are remote on a four-socket run (Table V).
	tmIndexBytes = 64 << 20
	// tmIndexTouchBytes is the per-event random access volume into the
	// shared index (pointer-chased node walks).
	tmIndexTouchBytes = 1 << 20
	// tmScratchBytes is the per-event candidate-corridor working buffer
	// (geometry copies, alignment lattices) streamed from executor-local
	// memory — the dominant bandwidth consumer, which scales per socket.
	tmScratchBytes = 120 << 20
	// tmMatchUops is the trajectory-alignment math per event.
	tmMatchUops = 210_000_000
)

// TrafficMonitoring builds the TM topology (Fig 5d): source -> map-match
// (shuffle) -> speed-calculate (fields road) -> sink.
func TrafficMonitoring(cfg Config) *engine.Topology {
	cfg = cfg.Resolve()
	t := engine.NewTopology("tm")
	grid := gen.NewRoadGrid(tmGridRows, tmGridCols)

	t.AddSource("source", 1, counted(cfg, func(seed int64) func(engine.Context) {
		g := gen.NewGPSGen(seed, grid, tmVehicles)
		return func(ctx engine.Context) {
			p := g.Next()
			ctx.Emit(p.VehicleID, p.Lat, p.Lon, p.Speed, p.Timestamp)
		}
	}), engine.Stream(engine.DefaultStream, "vehicle", "lat", "lon", "speed", "ts")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        7 << 10,
			UopsPerTuple:     380,
			BranchesPerTuple: 8,
			AvgTupleBytes:    88,
		})

	t.AddOp("map-match", cfg.par(8), func() engine.Operator { return newMapMatchOp(grid) },
		engine.Stream(engine.DefaultStream, "road", "vehicle", "speed", "ts")).
		SubDefault("source", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes:             14 << 10,
			UopsPerTuple:          800 + tmMatchUops, // alignment math dominates
			UopsPerEmit:           90,
			BranchesPerTuple:      30 + tmMatchUops/8000,
			StateBytes:            tmIndexBytes,
			SharedState:           true, // one road index shared by all executors
			StateAccessesPerTuple: 6,
			AvgTupleBytes:         56,
		})

	t.AddOp("speed-calculate", cfg.par(2), func() engine.Operator { return newSpeedCalcOp() },
		engine.Stream(engine.DefaultStream, "road", "avgSpeed", "count")).
		SubDefault("map-match", engine.Fields("road")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             8 << 10,
			UopsPerTuple:          280,
			UopsPerEmit:           80,
			BranchesPerTuple:      8,
			StateBytes:            (tmGridRows + tmGridCols) * 32,
			StateAccessesPerTuple: 2,
			AvgTupleBytes:         48,
		})

	t.AddOp("sink", cfg.par(1), nopSink).
		SubDefault("speed-calculate", engine.Global()).
		WithProfile(sinkProfile())
	return t
}

// mapMatchOp matches a GPS point to its road. The functional answer uses
// the grid's analytic structure; the cost model charges the real system's
// work — a candidate scan over a large share of the road-network table
// with per-road point-to-segment math.
type mapMatchOp struct {
	grid *gen.RoadGrid
}

func newMapMatchOp(g *gen.RoadGrid) *mapMatchOp { return &mapMatchOp{grid: g} }

func (m *mapMatchOp) Prepare(engine.Context) {}

func (m *mapMatchOp) Process(ctx engine.Context, t engine.Tuple) {
	lat := t.Values[1].(float64)
	lon := t.Values[2].(float64)

	road, dist := m.grid.NearestRoad(lat, lon)
	if dist > m.grid.Spacing {
		return // off-network point
	}
	// Charge the memory side of the real system's work: the shared
	// spatial index is pointer-chased (remote for most executors on a
	// multi-socket run) and a candidate corridor is materialized and
	// streamed through local working buffers. The alignment math itself
	// is part of the operator's WorkProfile, where the placement
	// optimizer can see it.
	ctx.AccessState(tmIndexTouchBytes)
	ctx.ScanScratch(tmScratchBytes)

	ctx.Emit(road, t.Values[0], t.Values[3], t.Values[4])
}

// speedCalcOp maintains per-road exponential average speeds.
type speedCalcOp struct {
	avg   map[int]float64
	count map[int]int64
}

func newSpeedCalcOp() *speedCalcOp {
	return &speedCalcOp{avg: map[int]float64{}, count: map[int]int64{}}
}

func (s *speedCalcOp) Prepare(engine.Context) {}
func (s *speedCalcOp) Process(ctx engine.Context, t engine.Tuple) {
	road := t.Values[0].(int)
	speed := t.Values[2].(float64)
	if math.IsNaN(speed) {
		return
	}
	s.count[road]++
	if s.count[road] == 1 {
		s.avg[road] = speed
	} else {
		s.avg[road] = 0.8*s.avg[road] + 0.2*speed
	}
	ctx.Emit(road, s.avg[road], s.count[road])
}
