package place

import (
	"reflect"
	"slices"
	"testing"
)

// toyModel builds a small synthetic workload: a source feeding two heavy
// workers that feed a sink, with asymmetric traffic so placement matters.
func toyModel(n, sockets int) *Model {
	m := &Model{
		Sockets:        sockets,
		CoresPerSocket: 2,
		ClockHz:        2_400_000_000,
		LocalBW:        21.33,
		QPIBW:          3.33,
		RemotePenalty:  2.03,
		SourceEvents:   1000,
		Batch:          1,
		invokeCycles:   300,
		deliveryCycles: 85,
	}
	m.Compute = make([]float64, n)
	m.MemBytes = make([]float64, n)
	m.Invocations = make([]float64, n)
	m.OutMsgs = make([]float64, n)
	for i := 0; i < n; i++ {
		m.Compute[i] = float64(1000 + 700*(i%3))
		m.MemBytes[i] = float64(50 * (i + 1))
		m.Invocations[i] = float64(10 + i)
	}
	for i := 0; i+1 < n; i++ {
		m.Edges = append(m.Edges, Edge{From: i, To: i + 1, Bytes: float64(400 * (1 + i%2)), Msgs: float64(8 + i)})
		m.OutMsgs[i] += float64(8 + i)
	}
	// A skip edge makes the graph non-chain so cuts are nontrivial.
	if n > 3 {
		m.Edges = append(m.Edges, Edge{From: 0, To: n - 1, Bytes: 900, Msgs: 4})
		m.OutMsgs[0] += 4
	}
	return m
}

func TestCanonicalRelabelsByFirstOccurrence(t *testing.T) {
	got := Canonical([]int{2, 2, 0, 3, 0, 2})
	want := []int{0, 0, 1, 2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Canonical = %v, want %v", got, want)
	}
}

func TestBottleneckSocketSymmetric(t *testing.T) {
	m := toyModel(6, 3)
	a := []int{0, 1, 1, 2, 0, 2}
	b := []int{2, 0, 0, 1, 2, 1} // same partition, relabeled
	if m.Bottleneck(a) != m.Bottleneck(b) {
		t.Fatalf("bottleneck differs under socket relabeling: %v vs %v", m.Bottleneck(a), m.Bottleneck(b))
	}
}

func TestRemoteEdgesRaiseBottleneck(t *testing.T) {
	m := toyModel(4, 2)
	all0 := []int{0, 0, 0, 0}
	split := []int{0, 1, 0, 1}
	if m.Bottleneck(split) <= 0 || m.Bottleneck(all0) <= 0 {
		t.Fatal("bottleneck must be positive")
	}
	// The split plan carries QPI traffic and remote penalties all0 avoids;
	// with only 2 cores/socket, all0 pays a worse compute bound instead.
	perfLocal := m.Bottleneck(all0)
	var totalCompute float64
	for _, c := range m.Compute {
		totalCompute += c
	}
	if perfLocal < totalCompute/float64(m.CoresPerSocket) {
		t.Fatalf("single-socket bound %v below compute floor %v", perfLocal, totalCompute/2)
	}
}

// TestSearchMatchesBruteForce compares the B&B result on a small model
// against exhaustive enumeration of all assignments.
func TestSearchMatchesBruteForce(t *testing.T) {
	m := toyModel(7, 3)
	bestScore := 1e308
	var bestAssign []int
	assign := make([]int, 7)
	var enum func(d int)
	enum = func(d int) {
		if d == 7 {
			c := Canonical(assign)
			s := m.Bottleneck(c)
			if s < bestScore || (s == bestScore && slices.Compare(c, bestAssign) < 0) {
				bestScore = s
				bestAssign = c
			}
			return
		}
		for s := 0; s < 3; s++ {
			assign[d] = s
			enum(d + 1)
		}
	}
	enum(0)

	got := m.Search(SearchOptions{TopM: 4})
	if len(got) == 0 {
		t.Fatal("empty search result")
	}
	if got[0].Score != bestScore {
		t.Fatalf("search best %v != brute force best %v", got[0].Score, bestScore)
	}
	if !reflect.DeepEqual(got[0].Assign, bestAssign) {
		t.Fatalf("search best assign %v != brute force %v", got[0].Assign, bestAssign)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score < got[i-1].Score {
			t.Fatalf("results not sorted: %v", got)
		}
	}
}

// TestSearchDeterministicAcrossWorkers pins the central determinism
// property: worker count must not change the result.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	m := toyModel(12, 4)
	seeds := [][]int{
		make([]int, 12),
		{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1},
	}
	r1 := m.Search(SearchOptions{TopM: 6, Workers: 1, Seeds: seeds})
	r4 := m.Search(SearchOptions{TopM: 6, Workers: 4, Seeds: seeds})
	r9 := m.Search(SearchOptions{TopM: 6, Workers: 9, Seeds: seeds})
	if !reflect.DeepEqual(r1, r4) || !reflect.DeepEqual(r1, r9) {
		t.Fatalf("results vary with worker count:\n1: %v\n4: %v\n9: %v", r1, r4, r9)
	}
}

// TestSearchNeverWorseThanSeeds: the best returned score is at most the
// best seed's score, and a tiny node budget cannot break that.
func TestSearchNeverWorseThanSeeds(t *testing.T) {
	m := toyModel(10, 4)
	seed := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	seedScore := m.Bottleneck(Canonical(seed))
	got := m.Search(SearchOptions{TopM: 3, Seeds: [][]int{seed}, budget: 1})
	if len(got) == 0 {
		t.Fatal("empty result")
	}
	if got[0].Score > seedScore {
		t.Fatalf("search best %v worse than seed %v", got[0].Score, seedScore)
	}
	// The seed itself must appear somewhere in the pool unless displaced
	// by topM strictly better plans.
	better := 0
	found := false
	for _, c := range got {
		if c.Score < seedScore {
			better++
		}
		if reflect.DeepEqual(c.Assign, Canonical(seed)) {
			found = true
		}
	}
	if !found && better < len(got) {
		t.Fatalf("seed dropped from ranking without being displaced: %v", got)
	}
}

// TestSearchScoresAreExact: every returned plan's score is its
// Bottleneck, with the fixed per-message crossing cost priced too.
func TestSearchScoresAreExact(t *testing.T) {
	m := toyModel(9, 4)
	m.CrossMsgCycles = 50
	for _, c := range m.Search(SearchOptions{TopM: 5}) {
		if got := m.Bottleneck(c.Assign); got != c.Score {
			t.Fatalf("candidate score %v != Bottleneck %v for %v", c.Score, got, c.Assign)
		}
	}
}

func TestWithBatchReducesOverheads(t *testing.T) {
	m := toyModel(6, 2)
	m8 := m.WithBatch(8)
	if m8.Batch != 8 {
		t.Fatalf("batch = %d", m8.Batch)
	}
	for i := range m.Compute {
		if m8.Compute[i] > m.Compute[i] {
			t.Fatalf("executor %d: batching increased compute %v -> %v", i, m.Compute[i], m8.Compute[i])
		}
		if m8.Compute[i] < 0.1*m.Compute[i] {
			t.Fatalf("executor %d: batching savings unclamped: %v -> %v", i, m.Compute[i], m8.Compute[i])
		}
	}
	if !reflect.DeepEqual(m.Compute, m.WithBatch(1).Compute) {
		t.Fatal("WithBatch(same) must be identity")
	}
}

// TestOversubscriptionInterference: packing more executors than cores on
// one socket charges every resident the per-invocation scheduling delay;
// a spread assignment with headroom on every socket pays nothing.
func TestOversubscriptionInterference(t *testing.T) {
	m := toyModel(5, 3) // 2 cores per socket
	m.interferenceCycles = oversubInterferenceCycles
	// Kill the edges so the only difference between plans is interference.
	m.Edges = nil
	packed := []int{0, 0, 0, 1, 2} // socket 0 holds 3 executors on 2 cores
	spread := []int{0, 0, 1, 1, 2} // every socket has core headroom
	// The hottest executor is index 2 (compute 2400). Packed puts it on the
	// oversubscribed socket, so its serial bound grows by interference(2).
	if m.interference(2) <= 0 {
		t.Fatal("interference term must be positive for a batch-1 model")
	}
	bPacked := m.Bottleneck(packed)
	bSpread := m.Bottleneck(spread)
	if bPacked <= bSpread {
		t.Fatalf("packed bottleneck %v not above spread %v despite interference", bPacked, bSpread)
	}
	// Exactly two executors per socket: no socket oversubscribed, the term
	// must vanish and the bottleneck revert to pure compute/core bounds.
	m2 := toyModel(4, 2)
	m2.interferenceCycles = oversubInterferenceCycles
	m2.Edges = nil
	with := m2.Bottleneck([]int{0, 0, 1, 1})
	m2.interferenceCycles = 0
	without := m2.Bottleneck([]int{0, 0, 1, 1})
	if with != without {
		t.Fatalf("interference charged on a non-oversubscribed socket: %v vs %v", with, without)
	}
}

func TestPredictThroughputPositive(t *testing.T) {
	m := toyModel(5, 2)
	if tp := m.PredictThroughput([]int{0, 0, 1, 1, 0}); tp <= 0 {
		t.Fatalf("predicted throughput %v", tp)
	}
}
