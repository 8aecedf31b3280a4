package apps

import (
	"streamscale/internal/engine"
	"streamscale/internal/gen"
)

const (
	fdCustomers = 20_000
	fdFraudPct  = 0.02
	// fdWindow is the state-transition sequence window (2 events, §III-C).
	fdWindow = 2
	// fdThreshold flags transitions rarer than this under the learned model.
	fdThreshold = 0.05
)

// FraudDetection builds the FD topology (Fig 5b): source -> predict
// (fields customer) -> sink. The predict operator runs the missProbability
// outlier detector over per-customer state-transition sequences.
func FraudDetection(cfg Config) *engine.Topology {
	cfg = cfg.Resolve()
	t := engine.NewTopology("fd")

	t.AddSource("source", 1, counted(cfg, func(seed int64) func(engine.Context) {
		g := gen.NewTransactionGen(seed, fdCustomers, fdFraudPct)
		return func(ctx engine.Context) {
			tx := g.Next()
			ctx.Emit(tx.CustomerID, tx.TransID, tx.Type)
		}
	}), engine.Stream(engine.DefaultStream, "customer", "trans", "type")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        7 << 10,
			UopsPerTuple:     350,
			BranchesPerTuple: 8,
			AvgTupleBytes:    56,
		})

	t.AddOp("predict", cfg.par(4), func() engine.Operator { return newPredictOp() },
		engine.Stream(engine.DefaultStream, "customer", "score")).
		SubDefault("source", engine.Fields("customer")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             11 << 10,
			UopsPerTuple:          420,
			UopsPerEmit:           90,
			BranchesPerTuple:      14,
			StateBytes:            fdCustomers * 112, // per-customer sequences
			StateAccessesPerTuple: 5,
			Selectivity:           0.05, // only outliers flow downstream
			AvgTupleBytes:         48,
		})

	t.AddOp("sink", cfg.par(1), nopSink).
		SubDefault("predict", engine.Global()).
		WithProfile(sinkProfile())
	return t
}

// predictOp implements the missProbability detector: it learns a global
// transition-count model online and flags customers whose recent
// transition sequence has low probability under it.
type predictOp struct {
	last   map[string][fdWindow]int
	seen   map[string]bool
	counts [gen.TransactionTypes][gen.TransactionTypes]float64
	rows   [gen.TransactionTypes]float64
}

func newPredictOp() *predictOp {
	return &predictOp{
		last: make(map[string][fdWindow]int),
		seen: make(map[string]bool),
	}
}

func (p *predictOp) Prepare(engine.Context) {}

func (p *predictOp) Process(ctx engine.Context, t engine.Tuple) {
	cust := t.Values[0].(string)
	typ := t.Values[2].(int)

	w := p.last[cust]
	known := p.seen[cust]
	prev := w[fdWindow-1]

	// Update the learned model with the observed transition.
	if known {
		p.counts[prev][typ]++
		p.rows[prev]++
	}
	// Score: probability of the transition under the model so far.
	if known && p.rows[prev] >= 20 {
		prob := p.counts[prev][typ] / p.rows[prev]
		if prob < fdThreshold {
			ctx.Emit(cust, prob)
		}
	}
	// Slide the window.
	copy(w[:], w[1:])
	w[fdWindow-1] = typ
	p.last[cust] = w
	p.seen[cust] = true
	ctx.Work(160, 6)
}
