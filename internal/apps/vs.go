package apps

import (
	"sort"

	"streamscale/internal/engine"
	"streamscale/internal/gen"
)

// VoIP spam detection sizing. The module weights follow the structure of
// the Bianchi et al. pipeline the paper references: per-number behavioural
// scores fused into one spam score at the Score operator.
const (
	vsSubscribers = 50_000
	vsSpammers    = 250
	vsBloomCells  = 1 << 17
	vsBloomHashes = 3
	vsHalfLife    = 3600 // one hour of stream time
	// vsSpamThreshold is the fused score above which a number is reported.
	vsSpamThreshold = 0.46
)

// VoIPSpam builds the VS topology (Fig 5f): a voice dispatcher feeding a
// set of filter modules over time-decaying Bloom filters (ECR, RCR, ENCR,
// CT24, ECR24, ACD, GlobalACD, URL), a fusion module (FoFIR), a Score
// operator combining module outputs, and a sink.
func VoIPSpam(cfg Config) *engine.Topology {
	cfg = cfg.Resolve()
	t := engine.NewTopology("vs")

	bloomProfile := func(codeKB int) engine.WorkProfile {
		return engine.WorkProfile{
			CodeBytes:             codeKB << 10,
			UopsPerTuple:          520,
			UopsPerEmit:           90,
			BranchesPerTuple:      18,
			StateBytes:            vsBloomCells * 16, // cells + timestamps
			StateAccessesPerTuple: vsBloomHashes * 2,
			AvgTupleBytes:         64,
		}
	}

	t.AddSource("source", 1, counted(cfg, func(seed int64) func(engine.Context) {
		g := gen.NewCDRGen(seed, vsSubscribers, vsSpammers)
		return func(ctx engine.Context) {
			c := g.Next()
			ctx.Emit(c.Calling, c.Called, c.Date, c.Duration, c.Established)
		}
	}), engine.Stream(engine.DefaultStream, "calling", "called", "ts", "dur", "established")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        8 << 10,
			UopsPerTuple:     420,
			BranchesPerTuple: 10,
			AvgTupleBytes:    112,
		})

	// The dispatcher cleans records and routes them to the modules on two
	// key spaces: by caller and by callee.
	t.AddOp("dispatcher", cfg.par(2), func() engine.Operator {
		return engine.ProcessFunc(func(ctx engine.Context, tp engine.Tuple) {
			ctx.EmitTo("byCaller", tp.Values...)
			ctx.EmitTo("byCallee", tp.Values...)
		})
	},
		engine.Stream("byCaller", "calling", "called", "ts", "dur", "established"),
		engine.Stream("byCallee", "calling", "called", "ts", "dur", "established")).
		SubDefault("source", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes:        7 << 10,
			UopsPerTuple:     280,
			UopsPerEmit:      60,
			BranchesPerTuple: 8,
			Selectivity:      2,
			AvgTupleBytes:    112,
		})

	module := func(name string, weight float64, m func() engine.Operator) {
		t.AddOp(name, cfg.par(2), m,
			engine.Stream(engine.DefaultStream, "number", "score", "weight")).
			Sub("dispatcher", "byCaller", engine.Fields("calling")).
			WithProfile(bloomProfile(9))
		_ = weight
	}

	// Caller-side modules.
	module("ecr", 0, func() engine.Operator { return newRateModule("ecr", 2.6, true) })
	module("encr", 0, func() engine.Operator { return newNewCalleeModule() })
	module("ct24", 0, func() engine.Operator { return newRateModule("ct24", 2.2, false) })
	module("ecr24", 0, func() engine.Operator { return newRateModule("ecr24", 2.4, true) })
	module("acd", 0, func() engine.Operator { return newACDModule(false) })
	module("url", 0, func() engine.Operator { return newURLModule() })

	// Callee-side module (received call rate).
	t.AddOp("rcr", cfg.par(2), func() engine.Operator { return newRCRModule() },
		engine.Stream(engine.DefaultStream, "number", "score", "weight")).
		Sub("dispatcher", "byCallee", engine.Fields("called")).
		WithProfile(bloomProfile(9))

	// Global average call duration (global grouping: one executor).
	t.AddOp("global-acd", 1, func() engine.Operator { return newACDModule(true) },
		engine.Stream(engine.DefaultStream, "number", "score", "weight")).
		Sub("dispatcher", "byCaller", engine.Global()).
		WithProfile(bloomProfile(7))

	// FoFIR fuses ECR and RCR evidence per number.
	t.AddOp("fofir", cfg.par(1), func() engine.Operator { return newFofirOp() },
		engine.Stream(engine.DefaultStream, "number", "score", "weight")).
		SubDefault("ecr", engine.Fields("number")).
		SubDefault("rcr", engine.Fields("number")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             8 << 10,
			UopsPerTuple:          360,
			UopsPerEmit:           80,
			BranchesPerTuple:      12,
			StateBytes:            1 << 20,
			StateAccessesPerTuple: 3,
			AvgTupleBytes:         56,
		})

	// Score combines the weighted module outputs per number.
	score := t.AddOp("score", cfg.par(2), func() engine.Operator { return newScoreOp() },
		engine.Stream(engine.DefaultStream, "number", "spamScore")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             9 << 10,
			UopsPerTuple:          340,
			UopsPerEmit:           90,
			BranchesPerTuple:      12,
			StateBytes:            2 << 20,
			StateAccessesPerTuple: 4,
			Selectivity:           0.02,
			AvgTupleBytes:         48,
		})
	for _, m := range []string{"fofir", "encr", "ct24", "ecr24", "acd", "global-acd", "url"} {
		score.SubDefault(m, engine.Fields("number"))
	}

	t.AddOp("sink", cfg.par(1), nopSink).
		SubDefault("score", engine.Global()).
		WithProfile(sinkProfile())
	return t
}

// sigmoid squashes a rate into [0,1) with the given scale midpoint.
func sigmoid(x, mid float64) float64 { return x / (x + mid) }

// rateModule scores a number by its decayed call rate; onlyEstablished
// restricts counting to established calls (ECR family).
type rateModule struct {
	name            string
	weight          float64
	onlyEstablished bool
	f               *DecayingBloomFilter
}

func newRateModule(name string, weight float64, onlyEstablished bool) *rateModule {
	return &rateModule{name: name, weight: weight, onlyEstablished: onlyEstablished}
}

func (m *rateModule) Prepare(engine.Context) {
	m.f = NewDecayingBloomFilter(vsBloomCells, vsBloomHashes, vsHalfLife)
}

func (m *rateModule) Process(ctx engine.Context, t engine.Tuple) {
	caller := t.Values[0].(string)
	established := t.Values[4].(bool)
	m.f.Advance(t.Values[2].(int64))
	if m.onlyEstablished && !established {
		// High attempt rate with low established rate is itself a signal:
		// emit the current estimate without refreshing.
		ctx.Emit(caller, sigmoid(m.f.Estimate(caller), 8), m.weight)
		return
	}
	m.f.Add(caller, 1)
	ctx.Emit(caller, sigmoid(m.f.Estimate(caller), 8), m.weight)
}

// rcrModule scores callee-side rates (spammers spread calls over many
// callees, so per-callee received rates stay low; legitimate hubs score
// high and offset caller-side evidence in FoFIR).
type rcrModule struct{ f *DecayingBloomFilter }

func newRCRModule() *rcrModule { return &rcrModule{} }

func (m *rcrModule) Prepare(engine.Context) {
	m.f = NewDecayingBloomFilter(vsBloomCells, vsBloomHashes, vsHalfLife)
}

func (m *rcrModule) Process(ctx engine.Context, t engine.Tuple) {
	caller := t.Values[0].(string)
	m.f.Advance(t.Values[2].(int64))
	m.f.Add(caller, 1) // track the caller's appearances on the callee side
	ctx.Emit(caller, sigmoid(m.f.Estimate(caller), 8), 2.0)
}

// newCalleeModule estimates the rate of *distinct new* callees per caller —
// the strongest telemarketer signal.
type newCalleeModule struct {
	seen *DecayingBloomFilter
	rate *DecayingBloomFilter
}

func newNewCalleeModule() *newCalleeModule { return &newCalleeModule{} }

func (m *newCalleeModule) Prepare(engine.Context) {
	m.seen = NewDecayingBloomFilter(vsBloomCells, vsBloomHashes, vsHalfLife*24)
	m.rate = NewDecayingBloomFilter(vsBloomCells, vsBloomHashes, vsHalfLife)
}

func (m *newCalleeModule) Process(ctx engine.Context, t engine.Tuple) {
	caller := t.Values[0].(string)
	called := t.Values[1].(string)
	ts := t.Values[2].(int64)
	m.seen.Advance(ts)
	m.rate.Advance(ts)
	pair := caller + "|" + called
	if m.seen.Estimate(pair) < 0.5 {
		m.seen.Add(pair, 1)
		m.rate.Add(caller, 1)
	}
	ctx.Emit(caller, sigmoid(m.rate.Estimate(caller), 5), 3.2)
}

// acdModule scores short average call durations; global mode tracks the
// population mean as the baseline.
type acdModule struct {
	global    bool
	durSum    *DecayingBloomFilter
	durCnt    *DecayingBloomFilter
	globalSum float64
	globalCnt float64
}

func newACDModule(global bool) *acdModule { return &acdModule{global: global} }

func (m *acdModule) Prepare(engine.Context) {
	m.durSum = NewDecayingBloomFilter(vsBloomCells, vsBloomHashes, vsHalfLife)
	m.durCnt = NewDecayingBloomFilter(vsBloomCells, vsBloomHashes, vsHalfLife)
}

func (m *acdModule) Process(ctx engine.Context, t engine.Tuple) {
	caller := t.Values[0].(string)
	dur := float64(t.Values[3].(int))
	established := t.Values[4].(bool)
	if !established {
		return
	}
	ts := t.Values[2].(int64)
	m.durSum.Advance(ts)
	m.durCnt.Advance(ts)
	m.durSum.Add(caller, dur)
	m.durCnt.Add(caller, 1)
	m.globalSum += dur
	m.globalCnt++

	cnt := m.durCnt.Estimate(caller)
	if cnt < 1 {
		return
	}
	avg := m.durSum.Estimate(caller) / cnt
	baseline := 240.0
	if m.global && m.globalCnt > 0 {
		baseline = m.globalSum / m.globalCnt
	}
	// Short calls relative to baseline look spammy.
	score := 1 - sigmoid(avg, baseline/3)
	weight := 1.6
	if m.global {
		weight = 1.2
	}
	ctx.Emit(caller, score, weight)
}

// urlModule is a placeholder reputation lookup: numbers hash to a fixed
// reputation bucket (the original consults an external reputation list).
type urlModule struct{}

func newURLModule() *urlModule { return &urlModule{} }

func (m *urlModule) Prepare(engine.Context) {}
func (m *urlModule) Process(ctx engine.Context, t engine.Tuple) {
	caller := t.Values[0].(string)
	var h uint32 = 2166136261
	for i := 0; i < len(caller); i++ {
		h = (h ^ uint32(caller[i])) * 16777619
	}
	ctx.Emit(caller, float64(h%100)/400.0, 0.6) // weak prior in [0, 0.25)
}

// fofirOp fuses ECR (caller pressure) and RCR (callee-side normality):
// high ECR with low RCR is the telemarketer pattern.
type fofirOp struct {
	ecr map[string]float64
	rcr map[string]float64
}

func newFofirOp() *fofirOp {
	return &fofirOp{ecr: map[string]float64{}, rcr: map[string]float64{}}
}

func (f *fofirOp) Prepare(engine.Context) {}
func (f *fofirOp) Process(ctx engine.Context, t engine.Tuple) {
	num := t.Values[0].(string)
	score := t.Values[1].(float64)
	op, _ := ctx.Input()
	if op == "ecr" {
		f.ecr[num] = score
	} else {
		f.rcr[num] = score
	}
	e, hasE := f.ecr[num]
	r, hasR := f.rcr[num]
	if hasE && hasR {
		fused := e * (1 - 0.5*r)
		ctx.Emit(num, fused, 3.0)
	}
}

// scoreOp maintains the latest weighted module scores per number and emits
// numbers whose fused score crosses the spam threshold.
type scoreOp struct {
	scores  map[string]map[string][2]float64 // number -> module -> (score, weight)
	flagged map[string]bool
}

func newScoreOp() *scoreOp {
	return &scoreOp{
		scores:  make(map[string]map[string][2]float64),
		flagged: make(map[string]bool),
	}
}

func (s *scoreOp) Prepare(engine.Context) {}
func (s *scoreOp) Process(ctx engine.Context, t engine.Tuple) {
	num := t.Values[0].(string)
	score := t.Values[1].(float64)
	weight := t.Values[2].(float64)
	op, _ := ctx.Input()

	mods := s.scores[num]
	if mods == nil {
		mods = make(map[string][2]float64, 8)
		s.scores[num] = mods
	}
	mods[op] = [2]float64{score, weight}
	if len(mods) < 4 {
		return // not enough evidence yet
	}
	// Fuse in sorted module order: float addition is not associative, so
	// iterating the map directly would let Go's randomized iteration order
	// perturb the low bits of the fused score run to run.
	names := make([]string, 0, len(mods))
	for m := range mods {
		names = append(names, m)
	}
	sort.Strings(names)
	var num1, den float64
	for _, m := range names {
		sw := mods[m]
		num1 += sw[0] * sw[1]
		den += sw[1]
	}
	fused := num1 / den
	if fused >= vsSpamThreshold && !s.flagged[num] {
		s.flagged[num] = true
		ctx.Emit(num, fused)
	}
}
