package bench

import (
	"strings"
	"testing"
)

// Events must scale by EventScale and never return a non-positive count:
// a negative or tiny scale would otherwise flow into apps.Build as a
// negative/zero event budget.
func TestCellEventsClamp(t *testing.T) {
	for _, tc := range []struct {
		name string
		cell Cell
		want int
	}{
		{name: "default", cell: Cell{App: "wc"}, want: 3000},
		{name: "unknown app default", cell: Cell{App: "mystery"}, want: 5000},
		{name: "scaled up", cell: Cell{App: "wc", EventScale: 2}, want: 6000},
		{name: "scaled down", cell: Cell{App: "wc", EventScale: 0.5}, want: 1500},
		{name: "zero scale means unscaled", cell: Cell{App: "wc", EventScale: 0}, want: 3000},
		{name: "tiny scale clamps to one", cell: Cell{App: "wc", EventScale: 1e-9}, want: 1},
		{name: "negative scale clamps to one", cell: Cell{App: "wc", EventScale: -3}, want: 1},
		{name: "negative scale on tm clamps to one", cell: Cell{App: "tm", EventScale: -0.5}, want: 1},
	} {
		if got := tc.cell.Events(); got != tc.want {
			t.Errorf("%s: Events() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A clamped cell must still build and run.
func TestCellNegativeScaleRuns(t *testing.T) {
	res, err := Run(Cell{App: "wc", System: "flink", Sockets: 1, EventScale: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceEvents < 1 {
		t.Fatalf("SourceEvents = %d, want >= 1", res.SourceEvents)
	}
}

// A socket's tenured region (14 GB) bounds how far a cell scales, and tm
// sets the bound: each map-match executor takes 120 MB of scan scratch,
// so a one-socket tm cell runs at scale 14, the largest that fits, and
// panics with the region's named fault at 15.
func TestTenuredRegionScaleLimit(t *testing.T) {
	cell := Cell{App: "tm", System: "storm", Sockets: 1, Scale: 14}
	if _, err := runDirect(cell); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "runs into the metaspace") {
			t.Errorf("tm at scale 15 on one socket panicked with %q, want a tenured allocation that runs into the metaspace", msg)
		}
	}()
	cell.Scale = 15
	runDirect(cell)
}
