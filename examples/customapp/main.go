// Custom application walkthrough: how a downstream user builds their own
// streaming application, attaches simulation work profiles, and runs the
// paper's full methodology against it — throughput, processor-time
// breakdown, batching, and NUMA-aware placement.
//
// The app is a clickstream sessionizer: click events keyed by user flow
// into a sessionizer (fields grouping, per-user state) whose completed
// sessions feed a funnel analyzer.
//
//	go run ./examples/customapp
package main

import (
	"fmt"

	"streamscale/internal/engine"
	"streamscale/internal/place"
)

// clickSource synthesizes click events (user, page, ts).
type clickSource struct{ n int }

func (s *clickSource) Prepare(engine.Context) {}
func (s *clickSource) Next(ctx engine.Context) bool {
	if s.n <= 0 {
		return false
	}
	s.n--
	rng := ctx.Rand()
	user := fmt.Sprintf("u%04d", rng.Intn(800))
	page := []string{"home", "search", "item", "cart", "checkout"}[rng.Intn(5)]
	ctx.Emit(user, page, int64(s.n))
	return s.n > 0
}

// sessionizer closes a user's session after a gap of idleGap events and
// emits (user, pages-in-session).
type sessionizer struct {
	last  map[string]int64
	pages map[string]int
}

const idleGap = 40

func (s *sessionizer) Prepare(engine.Context) {
	s.last = map[string]int64{}
	s.pages = map[string]int{}
}

func (s *sessionizer) Process(ctx engine.Context, t engine.Tuple) {
	user := t.Values[0].(string)
	ts := t.Values[2].(int64)
	if prev, ok := s.last[user]; ok && prev-ts > idleGap {
		ctx.Emit(user, s.pages[user])
		s.pages[user] = 0
	}
	s.pages[user]++
	s.last[user] = ts
	ctx.Work(300, 8) // session bookkeeping beyond the profile baseline
}

// Flush closes every open session at end of stream.
func (s *sessionizer) Flush(ctx engine.Context) {
	for user, n := range s.pages {
		if n > 0 {
			ctx.Emit(user, n)
		}
	}
}

// funnel counts session-length buckets.
type funnel struct{ buckets [4]int64 }

func (f *funnel) Prepare(engine.Context) {}
func (f *funnel) Process(ctx engine.Context, t engine.Tuple) {
	n := t.Values[1].(int)
	b := 0
	switch {
	case n >= 20:
		b = 3
	case n >= 10:
		b = 2
	case n >= 3:
		b = 1
	}
	f.buckets[b]++
	ctx.Emit(b, f.buckets[b])
}

func buildApp(events int) *engine.Topology {
	t := engine.NewTopology("clickstream")
	t.AddSource("clicks", 1, func() engine.Source { return &clickSource{n: events} },
		engine.Stream(engine.DefaultStream, "user", "page", "ts")).
		WithProfile(engine.WorkProfile{
			CodeBytes: 6 << 10, UopsPerTuple: 350, BranchesPerTuple: 8,
			AvgTupleBytes: 72,
		})
	t.AddOp("sessionize", 4, func() engine.Operator { return &sessionizer{} },
		engine.Stream(engine.DefaultStream, "user", "pages")).
		SubDefault("clicks", engine.Fields("user")).
		WithProfile(engine.WorkProfile{
			CodeBytes: 10 << 10, UopsPerTuple: 400, UopsPerEmit: 80,
			BranchesPerTuple: 12,
			StateBytes:       2 << 20, StateAccessesPerTuple: 4,
			Selectivity:   0.05, // sessions close rarely
			AvgTupleBytes: 48,
		})
	t.AddOp("funnel", 2, func() engine.Operator { return &funnel{} },
		engine.Stream(engine.DefaultStream, "bucket", "count")).
		SubDefault("sessionize", engine.Fields("user")).
		WithProfile(engine.WorkProfile{
			CodeBytes: 6 << 10, UopsPerTuple: 220, UopsPerEmit: 60,
			BranchesPerTuple: 6, StateBytes: 4 << 10, AvgTupleBytes: 40,
		})
	t.AddOp("sink", 1, func() engine.Operator {
		return engine.ProcessFunc(func(engine.Context, engine.Tuple) {})
	}).SubDefault("funnel", engine.Global())
	return t
}

func run(label string, cfg engine.SimConfig) *engine.Result {
	res, err := engine.RunSim(buildApp(5000), cfg)
	if err != nil {
		panic(err)
	}
	bd := res.Profile.Breakdown()
	fmt.Printf("%-34s %9.1f k events/s | comp %4.0f%% fe %4.0f%% be %4.0f%%\n",
		label, res.Throughput().KPerSecond(),
		bd.Computation*100, bd.FrontEnd*100, bd.BackEnd*100)
	return res
}

func main() {
	fmt.Println("clickstream sessionizer on the simulated 4-socket server")
	fmt.Println()

	// 1. The paper's profiling methodology, applied to your app.
	one := run("1 socket, storm profile", engine.SimConfig{
		System: engine.Storm(), Sockets: 1, Seed: 9,
	})
	_ = one
	four := run("4 sockets (NUMA-unaware)", engine.SimConfig{
		System: engine.Storm(), Sockets: 4, Seed: 9,
	})

	// 2. Non-blocking tuple batching.
	run("4 sockets, batching S=8", engine.SimConfig{
		System: engine.Storm(), Sockets: 4, Seed: 9, BatchSize: 8,
	})

	// 3. NUMA-aware placement from the communication graph.
	plans, err := place.PlanFor(buildApp(5000), engine.Storm(), 4, place.PlaceOptions{Balanced: true})
	if err != nil {
		panic(err)
	}
	best := plans[len(plans)-1]
	opt := run(fmt.Sprintf("4 sockets, S=8 + placement k=%d", best.K), engine.SimConfig{
		System: engine.Storm(), Sockets: 4, Seed: 9,
		BatchSize: 8, Placement: best.Placement(),
	})

	fmt.Printf("\ncombined optimizations vs NUMA-unaware 4 sockets: %.2fx\n",
		opt.Throughput().PerSecond()/four.Throughput().PerSecond())
}
