package apps

import (
	"streamscale/internal/engine"
	"streamscale/internal/gen"
)

const (
	sdMotes = 64
	// sdWindow is the moving-average window length.
	sdWindow = 90
	// sdThreshold is the spike threshold on the relative deviation from
	// the moving average (0.03 per §III-C).
	sdThreshold = 0.03
	sdSpikePct  = 0.01
)

// SpikeDetection builds the SD topology (Fig 5c): source -> moving-average
// (fields mote) -> spike-detection (shuffle) -> sink.
func SpikeDetection(cfg Config) *engine.Topology {
	cfg = cfg.Resolve()
	t := engine.NewTopology("sd")

	t.AddSource("source", 1, counted(cfg, func(seed int64) func(engine.Context) {
		g := gen.NewSensorGen(seed, sdMotes, sdSpikePct)
		return func(ctx engine.Context) {
			r := g.Next()
			ctx.Emit(r.MoteID, r.Timestamp, r.Temperature)
		}
	}), engine.Stream(engine.DefaultStream, "mote", "ts", "temp")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        6 << 10,
			UopsPerTuple:     300,
			BranchesPerTuple: 6,
			AvgTupleBytes:    48,
		})

	t.AddOp("moving-average", cfg.par(2), func() engine.Operator { return newMovingAvgOp() },
		engine.Stream(engine.DefaultStream, "mote", "value", "avg")).
		SubDefault("source", engine.Fields("mote")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             8 << 10,
			UopsPerTuple:          260,
			UopsPerEmit:           70,
			BranchesPerTuple:      8,
			StateBytes:            sdMotes * sdWindow * 48, // boxed window entries
			StateAccessesPerTuple: 4,
			AvgTupleBytes:         56,
		})

	t.AddOp("spike-detection", cfg.par(2), func() engine.Operator {
		return engine.ProcessFunc(spikeDetect)
	}, engine.Stream(engine.DefaultStream, "mote", "value", "avg")).
		SubDefault("moving-average", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes:        6 << 10,
			UopsPerTuple:     160,
			UopsPerEmit:      70,
			BranchesPerTuple: 5,
			Selectivity:      sdSpikePct * 3,
			AvgTupleBytes:    56,
		})

	t.AddOp("sink", cfg.par(1), nopSink).
		SubDefault("spike-detection", engine.Global()).
		WithProfile(sinkProfile())
	return t
}

// movingAvgOp keeps a per-mote sliding window and emits each value with
// its current moving average.
type movingAvgOp struct {
	windows map[int][]float64
	sums    map[int]float64
}

func newMovingAvgOp() *movingAvgOp {
	return &movingAvgOp{windows: make(map[int][]float64), sums: make(map[int]float64)}
}

func (m *movingAvgOp) Prepare(engine.Context) {}

func (m *movingAvgOp) Process(ctx engine.Context, t engine.Tuple) {
	mote := t.Values[0].(int)
	v := t.Values[2].(float64)
	w := m.windows[mote]
	m.sums[mote] += v
	w = append(w, v)
	if len(w) > sdWindow {
		m.sums[mote] -= w[0]
		w = w[1:]
	}
	m.windows[mote] = w
	ctx.Emit(mote, v, m.sums[mote]/float64(len(w)))
}

// spikeDetect forwards values that exceed the moving average by the
// threshold.
func spikeDetect(ctx engine.Context, t engine.Tuple) {
	v := t.Values[1].(float64)
	avg := t.Values[2].(float64)
	if avg > 0 && (v-avg) > sdThreshold*avg {
		ctx.Emit(t.Values...)
	}
}
