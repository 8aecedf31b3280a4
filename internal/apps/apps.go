// Package apps implements the paper's seven-application micro benchmark
// (§III-C) on the streamscale engine, plus the "null" application used to
// isolate platform instruction footprints in Figure 9:
//
//	WC — Stateful Word Count        FD — Fraud Detection
//	LG — Log Processing             SD — Spike Detection
//	VS — Spam Detection in VoIP     TM — Traffic Monitoring
//	LR — Linear Road
//
// Each constructor returns a topology with tuned per-operator parallelism
// (scaled by Config.Scale) and simulation work profiles derived from the
// applications' real computational and memory behaviour.
package apps

import (
	"fmt"
	"sort"

	"streamscale/internal/engine"
)

// Config parameterizes one application instance.
type Config struct {
	// Events is the number of input events each source executor emits.
	Events int
	// Seed drives all generator randomness.
	Seed int64
	// Scale multiplies every operator's tuned parallelism (>= 1).
	Scale int
}

// Resolve returns the configuration an app is built with: a non-positive
// Events means 5000 and a non-positive Scale means 1.
func (c Config) Resolve() Config {
	if c.Events <= 0 {
		c.Events = 5000
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

func (c Config) par(n int) int { return n * c.Scale }

// Builder constructs one benchmark application.
type Builder func(Config) *engine.Topology

var registry = map[string]Builder{
	"wc":   WordCount,
	"fd":   FraudDetection,
	"lg":   LogProcessing,
	"sd":   SpikeDetection,
	"vs":   VoIPSpam,
	"tm":   TrafficMonitoring,
	"lr":   LinearRoad,
	"null": Null,
}

// Names returns the registered application names in sorted order, the
// seven benchmark applications first.
func Names() []string {
	var out []string
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BenchmarkNames returns the paper's seven applications in figure order.
func BenchmarkNames() []string {
	return []string{"wc", "fd", "lg", "sd", "vs", "tm", "lr"}
}

// Build constructs a registered application.
func Build(name string, cfg Config) (*engine.Topology, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown application %q (have %v)", name, Names())
	}
	return b(cfg), nil
}

// countedSource is every app's source: it emits one record per Next until
// it has emitted n. Prepare seeds the app's generator with the app seed
// plus the executor's ID, through build, which returns the function that
// emits one record.
type countedSource struct {
	n     int
	seed  int64
	build func(seed int64) func(engine.Context)
	emit  func(engine.Context)
}

// counted returns the factory of a source that emits cfg.Events records.
func counted(cfg Config, build func(seed int64) func(engine.Context)) func() engine.Source {
	return func() engine.Source {
		return &countedSource{n: cfg.Events, seed: cfg.Seed, build: build}
	}
}

func (s *countedSource) Prepare(ctx engine.Context) {
	s.emit = s.build(s.seed + int64(ctx.ExecutorID()))
}

func (s *countedSource) Next(ctx engine.Context) bool {
	if s.n <= 0 {
		return false
	}
	s.n--
	s.emit(ctx)
	return s.n > 0
}

// nopSink returns a sink operator factory (the paper measures throughput
// with a simple sink operator).
func nopSink() engine.Operator {
	return engine.ProcessFunc(func(engine.Context, engine.Tuple) {})
}

// sinkProfile is the lightweight profile shared by sink operators.
func sinkProfile() engine.WorkProfile {
	return engine.WorkProfile{
		CodeBytes:        4 << 10,
		UopsPerTuple:     120,
		BranchesPerTuple: 4,
	}
}
