package apps

import (
	"streamscale/internal/engine"
	"streamscale/internal/gen"
)

// Linear Road constants (Arasu et al.; paper §III-C follows Sax et al.'s
// implementation).
const (
	// lrCongestionCars: tolls apply above this many cars in a segment.
	lrCongestionCars = 50
	// lrCongestionSpeed: tolls apply below this average speed (mph).
	lrCongestionSpeed = 40
	// lrBaseToll scales the congestion toll 2*(cars-50)^2.
	lrBaseToll = 2
	// lrStoppedReports: consecutive same-position reports meaning stopped.
	lrStoppedReports = 4
	lrHistoryDays    = 69
)

func lrSegKey(xway, dir, seg int) int { return (xway*2+dir)*1000 + seg }

// LinearRoad builds the LR topology (Fig 5g): a dispatcher routes position
// reports and historical queries to per-segment statistics operators
// (average speed, last average speed, vehicle counts, accident detection),
// a toll notifier, account-balance and daily-expenditure answerers, and an
// accident notifier, all draining into one sink.
func LinearRoad(cfg Config) *engine.Topology {
	cfg = cfg.Resolve()
	t := engine.NewTopology("lr")
	lrCfg := gen.DefaultLRConfig()

	posFields := []string{"vid", "speed", "xway", "dir", "seg", "segkey", "pos", "time"}

	t.AddSource("source", 1, counted(cfg, func(seed int64) func(engine.Context) {
		g := gen.NewLRGen(seed, lrCfg)
		return func(ctx engine.Context) {
			r := g.Next()
			ctx.Emit(r.Type, r.Time, r.VID, r.Speed, r.XWay, r.Lane, r.Dir, r.Seg, r.Pos, r.QID, r.Day)
		}
	}), engine.Stream(engine.DefaultStream, "type", "time", "vid", "speed", "xway", "lane", "dir", "seg", "pos", "qid", "day")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        9 << 10,
			UopsPerTuple:     480,
			BranchesPerTuple: 12,
			AvgTupleBytes:    140,
		})

	t.AddOp("dispatcher", cfg.par(2), func() engine.Operator {
		return engine.ProcessFunc(lrDispatch)
	},
		engine.Stream("position", posFields...),
		engine.Stream("balq", "vid", "qid", "time"),
		engine.Stream("dayq", "vid", "xway", "day", "qid")).
		SubDefault("source", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes:        8 << 10,
			UopsPerTuple:     320,
			UopsPerEmit:      70,
			BranchesPerTuple: 14,
			AvgTupleBytes:    110,
		})

	t.AddOp("average-speed", cfg.par(2), func() engine.Operator { return newLRAvgSpeedOp() },
		engine.Stream(engine.DefaultStream, "segkey", "avg")).
		Sub("dispatcher", "position", engine.Fields("segkey")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             7 << 10,
			UopsPerTuple:          260,
			UopsPerEmit:           70,
			BranchesPerTuple:      8,
			StateBytes:            512 << 10,
			StateAccessesPerTuple: 2,
			AvgTupleBytes:         40,
		})

	t.AddOp("last-average-speed", cfg.par(1), func() engine.Operator { return newLRLavOp() },
		engine.Stream(engine.DefaultStream, "segkey", "lav")).
		SubDefault("average-speed", engine.Fields("segkey")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             6 << 10,
			UopsPerTuple:          200,
			UopsPerEmit:           60,
			BranchesPerTuple:      6,
			StateBytes:            256 << 10,
			StateAccessesPerTuple: 2,
			AvgTupleBytes:         40,
		})

	t.AddOp("count-vehicles", cfg.par(2), func() engine.Operator { return newLRCountOp() },
		engine.Stream(engine.DefaultStream, "segkey", "cars")).
		Sub("dispatcher", "position", engine.Fields("segkey")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             7 << 10,
			UopsPerTuple:          260,
			UopsPerEmit:           60,
			BranchesPerTuple:      8,
			StateBytes:            2 << 20,
			StateAccessesPerTuple: 5,
			AvgTupleBytes:         40,
		})

	t.AddOp("accident-detection", cfg.par(1), func() engine.Operator { return newLRAccidentOp() },
		engine.Stream(engine.DefaultStream, "segkey", "accident")).
		Sub("dispatcher", "position", engine.Fields("segkey")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             8 << 10,
			UopsPerTuple:          280,
			UopsPerEmit:           60,
			BranchesPerTuple:      10,
			StateBytes:            512 << 10,
			StateAccessesPerTuple: 3,
			Selectivity:           0.01,
			AvgTupleBytes:         40,
		})

	toll := t.AddOp("toll-notification", cfg.par(2), func() engine.Operator { return newLRTollOp() },
		engine.Stream(engine.DefaultStream, "vid", "toll", "lav", "time"),
		engine.Stream("notify", "vid", "toll", "time")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             11 << 10,
			UopsPerTuple:          380,
			UopsPerEmit:           80,
			BranchesPerTuple:      16,
			StateBytes:            4 << 20,
			StateAccessesPerTuple: 6,
			AvgTupleBytes:         56,
		})
	toll.Sub("dispatcher", "position", engine.Fields("segkey"))
	toll.SubDefault("last-average-speed", engine.Fields("segkey"))
	toll.SubDefault("count-vehicles", engine.Fields("segkey"))
	toll.SubDefault("accident-detection", engine.Fields("segkey"))

	t.AddOp("accident-notification", cfg.par(1), func() engine.Operator { return newLRAccNotifyOp() },
		engine.Stream(engine.DefaultStream, "segkey", "time")).
		SubDefault("accident-detection", engine.Fields("segkey")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        6 << 10,
			UopsPerTuple:     180,
			UopsPerEmit:      60,
			BranchesPerTuple: 6,
			StateBytes:       64 << 10,
			AvgTupleBytes:    40,
		})

	balance := t.AddOp("account-balance", cfg.par(2), func() engine.Operator { return newLRBalanceOp() },
		engine.Stream(engine.DefaultStream, "qid", "vid", "balance")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             8 << 10,
			UopsPerTuple:          240,
			UopsPerEmit:           70,
			BranchesPerTuple:      8,
			StateBytes:            1 << 20,
			StateAccessesPerTuple: 2,
			AvgTupleBytes:         48,
		})
	balance.SubDefault("toll-notification", engine.Fields("vid"))
	balance.Sub("dispatcher", "balq", engine.Fields("vid"))

	t.AddOp("daily-expenses", cfg.par(1), func() engine.Operator {
		return newLRDailyOp(cfg.Seed, lrCfg.Vehicles)
	},
		engine.Stream(engine.DefaultStream, "qid", "vid", "day", "total")).
		Sub("dispatcher", "dayq", engine.Fields("vid")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             7 << 10,
			UopsPerTuple:          300,
			UopsPerEmit:           70,
			BranchesPerTuple:      8,
			StateBytes:            lrHistoryDays * 500 * 16,
			SharedState:           true, // one historical table
			StateAccessesPerTuple: 3,
			AvgTupleBytes:         48,
		})

	sink := t.AddOp("sink", cfg.par(1), nopSink).WithProfile(sinkProfile())
	sink.Sub("toll-notification", "notify", engine.Global())
	sink.SubDefault("accident-notification", engine.Global())
	sink.SubDefault("account-balance", engine.Global())
	sink.SubDefault("daily-expenses", engine.Global())
	return t
}

// lrDispatch routes input records by type.
func lrDispatch(ctx engine.Context, t engine.Tuple) {
	typ := t.Values[0].(int)
	switch typ {
	case gen.LRPosition:
		xway := t.Values[4].(int)
		dir := t.Values[6].(int)
		seg := t.Values[7].(int)
		ctx.EmitTo("position",
			t.Values[2], t.Values[3], xway, dir, seg,
			lrSegKey(xway, dir, seg), t.Values[8], t.Values[1])
	case gen.LRAccountBal:
		ctx.EmitTo("balq", t.Values[2], t.Values[9], t.Values[1])
	case gen.LRDailyExp:
		ctx.EmitTo("dayq", t.Values[2], t.Values[4], t.Values[10], t.Values[9])
	}
}

// lrAvgSpeedOp computes per-segment running average speeds per reporting
// period and emits the updated value.
type lrAvgSpeedOp struct {
	sum map[int]float64
	n   map[int]int64
}

func newLRAvgSpeedOp() *lrAvgSpeedOp {
	return &lrAvgSpeedOp{sum: map[int]float64{}, n: map[int]int64{}}
}

func (o *lrAvgSpeedOp) Prepare(engine.Context) {}
func (o *lrAvgSpeedOp) Process(ctx engine.Context, t engine.Tuple) {
	key := t.Values[5].(int)
	speed := float64(t.Values[1].(int))
	o.sum[key] += speed
	o.n[key]++
	ctx.Emit(key, o.sum[key]/float64(o.n[key]))
}

// lrLavOp tracks the latest average speed (LAV) per segment, emitting on
// meaningful change.
type lrLavOp struct{ lav map[int]float64 }

func newLRLavOp() *lrLavOp { return &lrLavOp{lav: map[int]float64{}} }

func (o *lrLavOp) Prepare(engine.Context) {}
func (o *lrLavOp) Process(ctx engine.Context, t engine.Tuple) {
	key := t.Values[0].(int)
	avg := t.Values[1].(float64)
	prev, seen := o.lav[key]
	o.lav[key] = avg
	if !seen || prev != avg {
		ctx.Emit(key, avg)
	}
}

// lrCountOp counts distinct vehicles per segment per reporting period.
type lrCountOp struct {
	period int64
	seen   map[int]map[int]bool
}

func newLRCountOp() *lrCountOp { return &lrCountOp{seen: map[int]map[int]bool{}} }

func (o *lrCountOp) Prepare(engine.Context) {}
func (o *lrCountOp) Process(ctx engine.Context, t engine.Tuple) {
	key := t.Values[5].(int)
	vid := t.Values[0].(int)
	tm := t.Values[7].(int64) / 60
	if tm != o.period {
		o.period = tm
		o.seen = map[int]map[int]bool{}
	}
	s := o.seen[key]
	if s == nil {
		s = map[int]bool{}
		o.seen[key] = s
	}
	if !s[vid] {
		s[vid] = true
		ctx.Emit(key, len(s))
	}
}

// lrAccidentOp detects accidents: a vehicle reporting the same position
// lrStoppedReports times is stopped; two stopped vehicles at one position
// is an accident. Emits onset and clearance per segment.
type lrAccidentOp struct {
	lastPos  map[int][2]int      // vid -> (pos, repeats)
	stopped  map[int]map[int]int // segkey -> pos -> stopped count
	accident map[int]bool
}

func newLRAccidentOp() *lrAccidentOp {
	return &lrAccidentOp{
		lastPos:  map[int][2]int{},
		stopped:  map[int]map[int]int{},
		accident: map[int]bool{},
	}
}

func (o *lrAccidentOp) Prepare(engine.Context) {}
func (o *lrAccidentOp) Process(ctx engine.Context, t engine.Tuple) {
	vid := t.Values[0].(int)
	key := t.Values[5].(int)
	pos := t.Values[6].(int)

	lp := o.lastPos[vid]
	oldPos := lp[0]
	wasStopped := lp[1] >= lrStoppedReports
	if lp[0] == pos {
		lp[1]++
	} else {
		lp = [2]int{pos, 1}
	}
	o.lastPos[vid] = lp
	isStopped := lp[1] >= lrStoppedReports

	segStops := o.stopped[key]
	if segStops == nil {
		segStops = map[int]int{}
		o.stopped[key] = segStops
	}
	if isStopped && !wasStopped {
		segStops[pos]++
	}
	if !isStopped && wasStopped {
		// The vehicle drove off: clear its stop at the old position.
		if segStops[oldPos] > 0 {
			segStops[oldPos]--
		}
	}
	acc := false
	for _, n := range segStops {
		if n >= 2 {
			acc = true
			break
		}
	}
	if acc != o.accident[key] {
		o.accident[key] = acc
		ctx.Emit(key, acc)
	}
}

// lrTollOp assesses tolls when a vehicle enters a new segment: congestion
// tolls apply when the segment's LAV is low, it is crowded, and has no
// accident.
type lrTollOp struct {
	lav      map[int]float64
	cars     map[int]int
	accident map[int]bool
	lastSeg  map[int]int
}

func newLRTollOp() *lrTollOp {
	return &lrTollOp{
		lav:      map[int]float64{},
		cars:     map[int]int{},
		accident: map[int]bool{},
		lastSeg:  map[int]int{},
	}
}

func (o *lrTollOp) Prepare(engine.Context) {}
func (o *lrTollOp) Process(ctx engine.Context, t engine.Tuple) {
	op, stream := ctx.Input()
	switch {
	case op == "last-average-speed":
		o.lav[t.Values[0].(int)] = t.Values[1].(float64)
	case op == "count-vehicles":
		o.cars[t.Values[0].(int)] = t.Values[1].(int)
	case op == "accident-detection":
		o.accident[t.Values[0].(int)] = t.Values[1].(bool)
	case stream == "position":
		vid := t.Values[0].(int)
		key := t.Values[5].(int)
		if o.lastSeg[vid] == key {
			return // toll assessed on segment entry only
		}
		o.lastSeg[vid] = key
		toll := LRToll(o.lav[key], o.cars[key], o.accident[key])
		tm := t.Values[7].(int64)
		ctx.Emit(vid, toll, o.lav[key], tm)
		if toll > 0 {
			ctx.EmitTo("notify", vid, toll, tm)
		}
	}
}

// LRToll computes the Linear Road congestion toll — exported as the test
// oracle.
func LRToll(lav float64, cars int, accident bool) int {
	if accident || cars <= lrCongestionCars || !(lav > 0 && lav < lrCongestionSpeed) {
		return 0
	}
	d := cars - lrCongestionCars
	return lrBaseToll * d * d
}

// lrAccNotifyOp notifies on accident onsets.
type lrAccNotifyOp struct{}

func newLRAccNotifyOp() *lrAccNotifyOp { return &lrAccNotifyOp{} }

func (o *lrAccNotifyOp) Prepare(engine.Context) {}
func (o *lrAccNotifyOp) Process(ctx engine.Context, t engine.Tuple) {
	if t.Values[1].(bool) {
		ctx.Emit(t.Values[0], int64(0))
	}
}

// lrBalanceOp accumulates assessed tolls per vehicle and answers account
// balance queries.
type lrBalanceOp struct{ balance map[int]int }

func newLRBalanceOp() *lrBalanceOp { return &lrBalanceOp{balance: map[int]int{}} }

func (o *lrBalanceOp) Prepare(engine.Context) {}
func (o *lrBalanceOp) Process(ctx engine.Context, t engine.Tuple) {
	op, _ := ctx.Input()
	if op == "toll-notification" {
		o.balance[t.Values[0].(int)] += t.Values[1].(int)
		return
	}
	// Balance query: (vid, qid, time).
	vid := t.Values[0].(int)
	ctx.Emit(t.Values[1], vid, o.balance[vid])
}

// lrDailyOp answers daily expenditure queries from the historical table.
type lrDailyOp struct {
	seed     int64
	vehicles int
	hist     gen.TollHistory
}

func newLRDailyOp(seed int64, vehicles int) *lrDailyOp {
	return &lrDailyOp{seed: seed, vehicles: vehicles}
}

func (o *lrDailyOp) Prepare(engine.Context) {
	o.hist = gen.HistoricalTolls(o.seed, o.vehicles, lrHistoryDays)
}

func (o *lrDailyOp) Process(ctx engine.Context, t engine.Tuple) {
	vid := t.Values[0].(int)
	day := t.Values[2].(int)
	qid := t.Values[3].(int)
	ctx.Emit(qid, vid, day, o.hist.Toll(vid, day))
}
