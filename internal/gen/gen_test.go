package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestZipfUniformWhenSkewZero(t *testing.T) {
	z := NewZipfMandelbrot(rand.New(rand.NewSource(1)), 10, 0, 2.7)
	counts := make([]int, 10)
	n := 100_000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for r, c := range counts {
		share := float64(c) / float64(n)
		if math.Abs(share-0.1) > 0.01 {
			t.Fatalf("rank %d share = %.3f, want ~0.1 (uniform at skew 0)", r, share)
		}
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	z := NewZipfMandelbrot(rand.New(rand.NewSource(1)), 100, 1.2, 2.7)
	counts := make([]int, 100)
	for i := 0; i < 50_000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
	head := counts[0] + counts[1] + counts[2]
	if float64(head)/50_000 < 0.15 {
		t.Fatalf("top-3 share %.3f too low for skew 1.2", float64(head)/50_000)
	}
}

func TestSentenceGenShape(t *testing.T) {
	g := NewSentenceGen(7, 200, 8, 0)
	vocab := map[string]bool{}
	for _, w := range g.Vocab() {
		if vocab[w] {
			t.Fatalf("duplicate vocabulary word %q", w)
		}
		vocab[w] = true
	}
	for i := 0; i < 100; i++ {
		s := g.Next()
		words := strings.Fields(s)
		if len(words) != 8 {
			t.Fatalf("sentence has %d words, want 8", len(words))
		}
		for _, w := range words {
			if !vocab[w] {
				t.Fatalf("word %q not in vocabulary", w)
			}
		}
	}
}

func TestSentenceGenDeterministic(t *testing.T) {
	a, b := NewSentenceGen(3, 100, 6, 0), NewSentenceGen(3, 100, 6, 0)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestTransactionGenFraudBehaviour(t *testing.T) {
	g := NewTransactionGen(5, 1000, 0.05)
	// Learn normal transitions: count how often the generator follows the
	// two preferred successors per type for normal vs fraud customers.
	follow := map[bool][2]int{} // isFraud -> (preferred, total)
	last := map[string]int{}
	for i := 0; i < 60_000; i++ {
		tx := g.Next()
		prev, seen := last[tx.CustomerID]
		last[tx.CustomerID] = tx.Type
		if !seen {
			continue
		}
		var custNum int
		if _, err := sscanCustomer(tx.CustomerID, &custNum); err != nil {
			t.Fatal(err)
		}
		fraud := custNum < 50
		pref := tx.Type == (prev+1)%TransactionTypes || tx.Type == (prev+4)%TransactionTypes
		f := follow[fraud]
		if pref {
			f[0]++
		}
		f[1]++
		follow[fraud] = f
	}
	normRate := float64(follow[false][0]) / float64(follow[false][1])
	fraudRate := float64(follow[true][0]) / float64(follow[true][1])
	if normRate < 0.7 {
		t.Fatalf("normal customers follow preferred transitions only %.2f of the time", normRate)
	}
	if fraudRate > 0.4 {
		t.Fatalf("fraud customers follow preferred transitions %.2f of the time — not anomalous", fraudRate)
	}
}

func sscanCustomer(s string, out *int) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "C%06d", &n)
	*out = n
	return n, err
}

func TestWeblogGenMix(t *testing.T) {
	g := NewWeblogGen(2, 500, 200)
	status := map[int]int{}
	ips := map[string]bool{}
	n := 20_000
	for i := 0; i < n; i++ {
		r := g.Next()
		status[r.Status]++
		ips[r.IP] = true
		if r.Status == 200 && r.Bytes == 0 {
			t.Fatal("200 response with zero bytes")
		}
		if r.Status != 200 && r.Bytes != 0 {
			t.Fatal("non-200 response with body")
		}
	}
	if share := float64(status[200]) / float64(n); share < 0.8 || share > 0.9 {
		t.Fatalf("200 share = %.3f, want ~0.85", share)
	}
	if len(ips) < 100 {
		t.Fatalf("only %d distinct IPs", len(ips))
	}
}

func TestSensorGenSpikes(t *testing.T) {
	g := NewSensorGen(3, 10, 0.02)
	base := map[int]float64{}
	spikes := 0
	n := 20_000
	for i := 0; i < n; i++ {
		r := g.Next()
		if b, ok := base[r.MoteID]; ok {
			if r.Temperature > b*1.04 {
				spikes++
			}
		}
		if r.Temperature < 50 { // ignore spike values when tracking base
			base[r.MoteID] = r.Temperature
		}
	}
	share := float64(spikes) / float64(n)
	if share < 0.005 || share > 0.08 {
		t.Fatalf("spike share = %.4f, want around 0.02", share)
	}
}

func TestCDRGenSpammerBehaviour(t *testing.T) {
	g := NewCDRGen(4, 10_000, 50)
	callees := map[string]map[string]bool{}
	answered := map[string][2]int{}
	for i := 0; i < 40_000; i++ {
		c := g.Next()
		if callees[c.Calling] == nil {
			callees[c.Calling] = map[string]bool{}
		}
		callees[c.Calling][c.Called] = true
		a := answered[c.Calling]
		if c.Established {
			a[0]++
		}
		a[1]++
		answered[c.Calling] = a
	}
	// Spammers: wide fan-out, low answer rate.
	var spamFan, normFan, spamN, normN float64
	var spamAns, normAns float64
	for num, set := range callees {
		a := answered[num]
		if a[1] < 10 {
			continue
		}
		rate := float64(a[0]) / float64(a[1])
		if g.IsSpammer(num) {
			spamFan += float64(len(set)) / float64(a[1])
			spamAns += rate
			spamN++
		} else {
			normFan += float64(len(set)) / float64(a[1])
			normAns += rate
			normN++
		}
	}
	if spamN == 0 || normN == 0 {
		t.Fatal("population not covered")
	}
	if spamFan/spamN <= normFan/normN {
		t.Fatal("spammers do not have wider fan-out per call")
	}
	if spamAns/spamN >= normAns/normN {
		t.Fatal("spammers do not have lower answer rates")
	}
}

func TestRoadGridNearest(t *testing.T) {
	grid := NewRoadGrid(5, 5)
	// A point exactly on horizontal road 2.
	id, d := grid.NearestRoad(grid.RoadLat(2), grid.OriginLon+0.003)
	if id != 2 || d > 1e-9 {
		t.Fatalf("nearest = %d (d=%g), want road 2", id, d)
	}
	// A point on vertical road 3.
	id, _ = grid.NearestRoad(grid.OriginLat+0.0234, grid.RoadLon(3))
	if id != 5+3 {
		t.Fatalf("nearest = %d, want vertical road %d", id, 5+3)
	}
}

func TestGPSGenPointsNearRoads(t *testing.T) {
	grid := NewRoadGrid(10, 10)
	g := NewGPSGen(6, grid, 50)
	for i := 0; i < 2000; i++ {
		p := g.Next()
		_, d := grid.NearestRoad(p.Lat, p.Lon)
		if d > grid.Spacing*0.5 {
			t.Fatalf("trace point %d is %.4f deg from any road (spacing %.4f)", i, d, grid.Spacing)
		}
		if p.VehicleID < 0 || p.VehicleID >= 50 {
			t.Fatalf("vehicle ID out of range: %d", p.VehicleID)
		}
	}
}

func TestLRGenRecordMix(t *testing.T) {
	g := NewLRGen(8, DefaultLRConfig())
	types := map[int]int{}
	n := 30_000
	stopped := 0
	for i := 0; i < n; i++ {
		r := g.Next()
		types[r.Type]++
		switch r.Type {
		case LRPosition:
			if r.Seg < 0 || r.Seg >= 100 {
				t.Fatalf("segment out of range: %d", r.Seg)
			}
			if r.Speed == 0 {
				stopped++
			}
		case LRAccountBal, LRDailyExp:
			if r.QID == 0 {
				t.Fatal("query without QID")
			}
		default:
			t.Fatalf("unknown record type %d", r.Type)
		}
	}
	if types[LRPosition] < n*9/10 {
		t.Fatalf("position reports = %d of %d, want >= 90%%", types[LRPosition], n)
	}
	if types[LRAccountBal] == 0 || types[LRDailyExp] == 0 {
		t.Fatal("no historical queries generated")
	}
	if stopped == 0 {
		t.Fatal("no stopped vehicles: accidents never happen")
	}
}

func TestLRGenTimeAdvances(t *testing.T) {
	g := NewLRGen(8, DefaultLRConfig())
	var last int64
	for i := 0; i < 5000; i++ {
		r := g.Next()
		if r.Time < last {
			t.Fatal("time went backwards")
		}
		last = r.Time
	}
	if last == 0 {
		t.Fatal("time never advanced")
	}
}

// TestHistoricalTolls checks the toll history against the draws it stands
// for (one rng.Intn(90) per vehicle, then per day, as the map it replaced
// drew them) and reads 0 outside the table, as that map's missing keys did.
func TestHistoricalTolls(t *testing.T) {
	const vehicles, days = 10, 5
	h := HistoricalTolls(1, vehicles, days)
	if len(h.tolls) != vehicles*days {
		t.Fatalf("table size = %d, want %d", len(h.tolls), vehicles*days)
	}
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < vehicles; v++ {
		for d := 1; d <= days; d++ {
			if got, want := h.Toll(v, d), rng.Intn(90); got != want {
				t.Fatalf("Toll(%d, %d) = %d, want %d", v, d, got, want)
			}
		}
	}
	for _, q := range [][2]int{{-1, 1}, {vehicles, 1}, {0, 0}, {0, days + 1}, {vehicles - 1, -3}} {
		if got := h.Toll(q[0], q[1]); got != 0 {
			t.Errorf("Toll(%d, %d) outside the history = %d, want 0", q[0], q[1], got)
		}
	}
}
