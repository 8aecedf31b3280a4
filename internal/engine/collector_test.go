package engine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mkTuples(keys ...string) []Tuple {
	ts := make([]Tuple, len(keys))
	for i, k := range keys {
		ts[i] = Tuple{Values: []Value{k, i}}
	}
	return ts
}

var wordStream = Stream(DefaultStream, "word", "n")

// recorder is a transport that keeps every message sent to it.
type recorder struct{ batches []AddressedBatch }

func (r *recorder) now() int64       { return 0 }
func (r *recorder) stamp() int64     { return 0 }
func (r *recorder) slab(int) []Tuple { return nil }
func (r *recorder) send(to int, m Msg) {
	r.batches = append(r.batches, AddressedBatch{Consumer: to, Tuples: m.Batch})
}

// testRouter is a producer executor with one out edge to consumer
// executors 0..n-1, on the executor core's router.
type testRouter struct {
	ex  *executor
	ed  *outEdge
	rec *recorder
}

func newTestRouter(g Grouping, consumers, batchCap int) *testRouter {
	rec := &recorder{}
	ed := &outEdge{stream: DefaultStream, kind: g.Kind, batchCap: batchCap}
	if g.Kind == GroupFields {
		ed.fieldIdx = FieldIndices(wordStream, g.Fields)
	}
	for c := 0; c < consumers; c++ {
		ed.to = append(ed.to, c)
	}
	return &testRouter{ex: &executor{node: &Node{Name: "p"}, port: rec}, ed: ed, rec: rec}
}

// route runs one invocation's tuples through the edge and returns the
// batches sent, in send order.
func (r *testRouter) route(tuples []Tuple) []AddressedBatch {
	r.rec.batches = nil
	r.ex.route(r.ed, tuples)
	return r.rec.batches
}

func fieldsRouter(consumers int) *testRouter {
	return newTestRouter(Fields("word"), consumers, 0)
}

func TestFieldsRoutingSameKeySameConsumer(t *testing.T) {
	r := fieldsRouter(3)
	batches := r.route(mkTuples("a", "b", "a", "c", "a", "b"))
	dest := map[string]int{}
	for _, b := range batches {
		for _, tu := range b.Tuples {
			w := tu.Values[0].(string)
			if prev, ok := dest[w]; ok && prev != b.Consumer {
				t.Fatalf("key %q routed to consumers %d and %d", w, prev, b.Consumer)
			}
			dest[w] = b.Consumer
		}
	}
	// Per Algorithm 1, one batch per destination (no cap): at most 3.
	if len(batches) > 3 {
		t.Fatalf("%d batches for 3 consumers, want <= 3", len(batches))
	}
}

func TestFieldsRoutingStableAcrossInvocations(t *testing.T) {
	r1 := fieldsRouter(4)
	r2 := fieldsRouter(4)
	b1 := r1.route(mkTuples("x"))
	b2 := r2.route(mkTuples("x", "y", "x"))
	var c1, c2 = -1, -1
	c1 = b1[0].Consumer
	for _, b := range b2 {
		for _, tu := range b.Tuples {
			if tu.Values[0].(string) == "x" {
				c2 = b.Consumer
			}
		}
	}
	if c1 != c2 {
		t.Fatalf("key routed to %d then %d across invocations", c1, c2)
	}
}

func TestShuffleRoutingBalancesBlocks(t *testing.T) {
	r := newTestRouter(Shuffle(), 2, 2)
	counts := map[int]int{}
	for inv := 0; inv < 10; inv++ {
		for _, b := range r.route(mkTuples("a", "b", "c", "d")) {
			if len(b.Tuples) != 2 {
				t.Fatalf("block size %d, want 2", len(b.Tuples))
			}
			counts[b.Consumer] += len(b.Tuples)
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("shuffle imbalance: %v", counts)
	}
}

func TestShuffleRotatesStartConsumer(t *testing.T) {
	r := newTestRouter(Shuffle(), 3, 1)
	first := r.route(mkTuples("a"))[0].Consumer
	second := r.route(mkTuples("a"))[0].Consumer
	if first == second {
		t.Fatalf("consecutive single-tuple invocations hit the same consumer %d", first)
	}
}

func TestGlobalRoutingAllToZero(t *testing.T) {
	r := newTestRouter(Global(), 5, 0)
	for _, b := range r.route(mkTuples("a", "b", "c")) {
		if b.Consumer != 0 {
			t.Fatalf("global routed to %d", b.Consumer)
		}
	}
}

func TestAllRoutingReplicates(t *testing.T) {
	r := newTestRouter(All(), 3, 0)
	batches := r.route(mkTuples("a", "b"))
	got := map[int]int{}
	for _, b := range batches {
		got[b.Consumer] += len(b.Tuples)
	}
	for c := 0; c < 3; c++ {
		if got[c] != 2 {
			t.Fatalf("consumer %d got %d tuples, want 2", c, got[c])
		}
	}
}

func TestBatchCapSplits(t *testing.T) {
	r := newTestRouter(Global(), 1, 2)
	batches := r.route(mkTuples("a", "b", "c", "d", "e"))
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3 (2+2+1)", len(batches))
	}
	if len(batches[2].Tuples) != 1 {
		t.Fatalf("last batch size %d, want 1", len(batches[2].Tuples))
	}
}

func TestEmptyRouteReturnsNil(t *testing.T) {
	r := fieldsRouter(3)
	if got := r.route(nil); got != nil {
		t.Fatalf("routing no tuples produced %v", got)
	}
}

// Property (Algorithm 1 correctness): for any batch of keyed tuples and any
// consumer count, (1) every input tuple appears in exactly one output batch,
// (2) all tuples with equal keys land on the same consumer, and (3) the
// destination matches hash(key) mod n, i.e. agrees with unbatched fields
// grouping.
func TestFieldsRoutingProperty(t *testing.T) {
	f := func(raw []uint8, nc uint8) bool {
		consumers := int(nc%7) + 1
		keys := make([]string, len(raw))
		for i, b := range raw {
			keys[i] = string(rune('a' + b%16))
		}
		r := fieldsRouter(consumers)
		in := mkTuples(keys...)
		out := r.route(in)

		seen := 0
		for _, b := range out {
			for _, tu := range b.Tuples {
				seen++
				k := tu.Values[0].(string)
				want := int(HashFields([]Value{k}, []int{0}) % uint64(consumers))
				if b.Consumer != want {
					return false
				}
			}
		}
		return seen == len(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: shuffle routing delivers every tuple exactly once and stays
// balanced within one block size across consumers over many invocations.
func TestShuffleRoutingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		consumers := rng.Intn(6) + 1
		capSize := rng.Intn(8) + 1
		r := newTestRouter(Shuffle(), consumers, capSize)
		counts := make([]int, consumers)
		total := 0
		for inv := 0; inv < 30; inv++ {
			n := rng.Intn(12)
			in := make([]Tuple, n)
			for i := range in {
				in[i] = Tuple{Values: []Value{"k", i}}
			}
			got := 0
			for _, b := range r.route(in) {
				counts[b.Consumer] += len(b.Tuples)
				got += len(b.Tuples)
			}
			if got != n {
				return false
			}
			total += n
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		_ = total
		return max-min <= capSize*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
