package apps

import (
	"strings"

	"streamscale/internal/engine"
	"streamscale/internal/gen"
)

// Word-count sizing: the paper's text stream uses a Linux-kernel-dictionary
// vocabulary with skew 0.
const (
	wcVocabulary       = 4096
	wcWordsPerSentence = 8
)

// WordCount builds the Stateful Word Count topology (Fig 5a):
// source -> split (shuffle) -> count (fields word) -> sink (global).
func WordCount(cfg Config) *engine.Topology {
	cfg = cfg.Resolve()
	t := engine.NewTopology("wc")

	t.AddSource("source", 1, counted(cfg, func(seed int64) func(engine.Context) {
		g := gen.NewSentenceGen(seed, wcVocabulary, wcWordsPerSentence, 0)
		return func(ctx engine.Context) { ctx.Emit(g.Next()) }
	}), engine.Stream(engine.DefaultStream, "sentence")).
		WithProfile(engine.WorkProfile{
			CodeBytes:        8 << 10,
			UopsPerTuple:     500,
			BranchesPerTuple: 10,
			Selectivity:      1,
			AvgTupleBytes:    90,
		})

	t.AddOp("split", cfg.par(2), func() engine.Operator { return &splitOp{} },
		engine.Stream(engine.DefaultStream, "word")).
		SubDefault("source", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes:        10 << 10,
			UopsPerTuple:     300,
			UopsPerEmit:      90,
			BranchesPerTuple: 24,
			Selectivity:      wcWordsPerSentence,
			AvgTupleBytes:    40,
		})

	t.AddOp("count", cfg.par(2), func() engine.Operator { return &countOp{} },
		engine.Stream(engine.DefaultStream, "word", "count")).
		SubDefault("split", engine.Fields("word")).
		WithProfile(engine.WorkProfile{
			CodeBytes:             9 << 10,
			UopsPerTuple:          260,
			UopsPerEmit:           80,
			BranchesPerTuple:      10,
			StateBytes:            wcVocabulary * 384, // hashmap entries + boxed values
			StateAccessesPerTuple: 5,
			Selectivity:           1,
			AvgTupleBytes:         48,
		})

	t.AddOp("sink", cfg.par(1), nopSink).
		SubDefault("count", engine.Global()).
		WithProfile(sinkProfile())
	return t
}

// splitOp parses sentences into words.
type splitOp struct{}

func (splitOp) Prepare(engine.Context) {}
func (splitOp) Process(ctx engine.Context, t engine.Tuple) {
	s := t.Values[0].(string)
	words := 0
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if i > start {
				ctx.Emit(s[start:i])
				words++
			}
			start = i + 1
		}
	}
	// Parsing cost scales with sentence length.
	ctx.Work(len(s)*4, words)
}

// countOp maintains word frequencies and emits the updated count — the
// hashmap is created once and updated per word, as §III-C specifies.
type countOp struct {
	counts map[string]int64
}

func (c *countOp) Prepare(engine.Context) { c.counts = make(map[string]int64, wcVocabulary) }
func (c *countOp) Process(ctx engine.Context, t engine.Tuple) {
	w := t.Values[0].(string)
	c.counts[w]++
	ctx.Emit(w, c.counts[w])
}

// WCReferenceCounts computes expected word counts for a configuration —
// the test oracle (single source executor).
func WCReferenceCounts(cfg Config) map[string]int64 {
	cfg = cfg.Resolve()
	counts := map[string]int64{}
	for ex := 0; ex < cfg.par(1); ex++ {
		g := gen.NewSentenceGen(cfg.Seed+int64(ex), wcVocabulary, wcWordsPerSentence, 0)
		for i := 0; i < cfg.Events; i++ {
			for _, w := range strings.Fields(g.Next()) {
				counts[w]++
			}
		}
	}
	return counts
}
