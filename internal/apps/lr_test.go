package apps

import (
	"math/rand"
	"testing"

	"streamscale/internal/engine"
)

// ctxAdapter is a minimal engine.Context capturing operator emissions for
// direct operator-level tests.
type ctxAdapter struct{ *fakeCtx }

type fakeCtx struct {
	emitted  [][]engine.Value
	byStream map[string][][]engine.Value
	inOp     string
	inStream string
	rng      *rand.Rand
}

func newFakeCtx() *fakeCtx {
	return &fakeCtx{byStream: map[string][][]engine.Value{}, rng: rand.New(rand.NewSource(1))}
}

func (f *fakeCtx) Emit(values ...engine.Value) { f.EmitTo(engine.DefaultStream, values...) }
func (f *fakeCtx) EmitTo(stream string, values ...engine.Value) {
	f.emitted = append(f.emitted, values)
	f.byStream[stream] = append(f.byStream[stream], values)
}
func (f *fakeCtx) ExecutorID() int         { return 0 }
func (f *fakeCtx) Parallelism() int        { return 1 }
func (f *fakeCtx) OperatorName() string    { return "test" }
func (f *fakeCtx) Work(uops, branches int) {}
func (f *fakeCtx) AccessState(bytes int)   {}
func (f *fakeCtx) ScanScratch(bytes int)   {}
func (f *fakeCtx) Rand() *rand.Rand        { return f.rng }
func (f *fakeCtx) Input() (string, string) { return f.inOp, f.inStream }

var _ engine.Context = &ctxAdapter{}

func TestLRAccidentDetection(t *testing.T) {
	op := newLRAccidentOp()
	ctx := &ctxAdapter{fakeCtx: newFakeCtx()}
	// posTuple mirrors the dispatcher's "position" stream layout.
	pos := func(vid, segkey, position int) engine.Tuple {
		return engine.Tuple{Values: []engine.Value{
			vid, 0, 0, 0, 0, segkey, position, int64(0),
		}}
	}
	// Two vehicles report the same position 4 times each: accident.
	for i := 0; i < lrStoppedReports; i++ {
		op.Process(ctx, pos(1, 42, 500))
		op.Process(ctx, pos(2, 42, 500))
	}
	if len(ctx.emitted) != 1 {
		t.Fatalf("accident emissions = %d, want 1 (onset)", len(ctx.emitted))
	}
	if !ctx.emitted[0][1].(bool) {
		t.Fatal("onset emitted accident=false")
	}
	// Vehicle 1 moves away: accident clears.
	op.Process(ctx, pos(1, 42, 999))
	if len(ctx.emitted) != 2 || ctx.emitted[1][1].(bool) {
		t.Fatalf("clearance not emitted: %v", ctx.emitted)
	}
}

func TestLRAccidentSingleStoppedVehicleIsNotAccident(t *testing.T) {
	op := newLRAccidentOp()
	ctx := &ctxAdapter{fakeCtx: newFakeCtx()}
	for i := 0; i < 10; i++ {
		op.Process(ctx, engine.Tuple{Values: []engine.Value{
			7, 0, 0, 0, 0, 42, 500, int64(0),
		}})
	}
	if len(ctx.emitted) != 0 {
		t.Fatalf("one stopped car flagged as accident: %v", ctx.emitted)
	}
}

func TestLRCountVehiclesDistinctPerPeriod(t *testing.T) {
	op := newLRCountOp()
	ctx := &ctxAdapter{fakeCtx: newFakeCtx()}
	pos := func(vid int, tm int64) engine.Tuple {
		return engine.Tuple{Values: []engine.Value{vid, 0, 0, 0, 0, 42, 0, tm}}
	}
	op.Process(ctx, pos(1, 10))
	op.Process(ctx, pos(1, 11)) // same vehicle, same minute: no new count
	op.Process(ctx, pos(2, 12))
	if len(ctx.emitted) != 2 {
		t.Fatalf("emissions = %d, want 2 (distinct vehicles)", len(ctx.emitted))
	}
	if got := ctx.emitted[1][1].(int); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	// New minute resets the distinct set.
	op.Process(ctx, pos(1, 70))
	last := ctx.emitted[len(ctx.emitted)-1]
	if got := last[1].(int); got != 1 {
		t.Fatalf("count after period roll = %d, want 1", got)
	}
}

func TestLRTollNotificationFlow(t *testing.T) {
	op := newLRTollOp()
	ctx := &ctxAdapter{fakeCtx: newFakeCtx()}
	seg := lrSegKey(0, 0, 5)

	// Prime segment state via the stats streams.
	ctx.inOp = "last-average-speed"
	op.Process(ctx, engine.Tuple{Values: []engine.Value{seg, 30.0}})
	ctx.inOp = "count-vehicles"
	op.Process(ctx, engine.Tuple{Values: []engine.Value{seg, 80}})
	ctx.inOp = "accident-detection"
	op.Process(ctx, engine.Tuple{Values: []engine.Value{seg, false}})

	// A vehicle enters the segment: toll assessed.
	ctx.inOp, ctx.inStream = "dispatcher", "position"
	pos := engine.Tuple{Values: []engine.Value{9, 55, 0, 0, 5, seg, 100, int64(30)}}
	op.Process(ctx, pos)
	if len(ctx.byStream[engine.DefaultStream]) != 1 {
		t.Fatalf("toll emissions = %d, want 1", len(ctx.byStream[engine.DefaultStream]))
	}
	toll := ctx.byStream[engine.DefaultStream][0][1].(int)
	if toll != LRToll(30, 80, false) {
		t.Fatalf("toll = %d, want %d", toll, LRToll(30, 80, false))
	}
	if len(ctx.byStream["notify"]) != 1 {
		t.Fatal("positive toll did not notify")
	}
	// Same segment again: no re-assessment.
	op.Process(ctx, pos)
	if len(ctx.byStream[engine.DefaultStream]) != 1 {
		t.Fatal("toll re-assessed within the same segment")
	}
}

func TestLRBalanceAccumulatesAndAnswers(t *testing.T) {
	op := newLRBalanceOp()
	ctx := &ctxAdapter{fakeCtx: newFakeCtx()}
	ctx.inOp = "toll-notification"
	op.Process(ctx, engine.Tuple{Values: []engine.Value{7, 100, 30.0, int64(0)}})
	op.Process(ctx, engine.Tuple{Values: []engine.Value{7, 50, 30.0, int64(0)}})
	ctx.inOp = "dispatcher"
	op.Process(ctx, engine.Tuple{Values: []engine.Value{7, 99, int64(60)}})
	if len(ctx.emitted) != 1 {
		t.Fatalf("balance answers = %d, want 1", len(ctx.emitted))
	}
	if got := ctx.emitted[0][2].(int); got != 150 {
		t.Fatalf("balance = %d, want 150", got)
	}
}

func TestVolumeCounterBuckets(t *testing.T) {
	op := newVolumeCounterOp()
	ctx := &ctxAdapter{fakeCtx: newFakeCtx()}
	rec := func(ts int64) engine.Tuple {
		return engine.Tuple{Values: []engine.Value{"ip", ts, "/u", 200, 10}}
	}
	op.Process(ctx, rec(0))
	op.Process(ctx, rec(30))
	op.Process(ctx, rec(61)) // rolls the minute: bucket of 2 emitted
	if len(ctx.emitted) != 1 {
		t.Fatalf("emissions = %d, want 1", len(ctx.emitted))
	}
	if got := ctx.emitted[0][1].(int64); got != 2 {
		t.Fatalf("bucket = %d, want 2", got)
	}
	op.Flush(ctx)
	if len(ctx.emitted) != 2 {
		t.Fatal("flush did not emit the partial bucket")
	}
}
