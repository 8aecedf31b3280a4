package apps

import "streamscale/internal/engine"

// Null builds the "null" application of §V-B: a source feeding an operator
// that performs nothing, isolating the platform's own instruction footprint
// in the Figure 9 CDF.
func Null(cfg Config) *engine.Topology {
	cfg = cfg.Resolve()
	t := engine.NewTopology("null")

	t.AddSource("source", 1, counted(cfg, func(int64) func(engine.Context) {
		n := cfg.Events
		return func(ctx engine.Context) {
			n--
			ctx.Emit(n)
		}
	}), engine.Stream(engine.DefaultStream, "v")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        6 << 10,
			UopsPerTuple:     60,
			BranchesPerTuple: 2,
			AvgTupleBytes:    32,
		})

	t.AddOp("null", cfg.par(2), func() engine.Operator {
		return engine.ProcessFunc(func(engine.Context, engine.Tuple) {})
	}).
		SubDefault("source", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes:        5 << 10,
			UopsPerTuple:     20,
			BranchesPerTuple: 1,
		})
	return t
}
