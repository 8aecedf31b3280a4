package bench

import "testing"

// Golden-file tests for the placement table renderers: the format strings
// are load-bearing (report_output.txt is diffed byte-for-byte across
// runs), so pin their exact output on literal rows — no simulation.

var goldenPlacementRows = []PlacementRow{
	{App: "wc", System: "storm", SingleSocket: 0.3012, FourSockets: 1, Placed: 1.2149, Combined: 4.018, BestK: 1},
	{App: "tm", System: "storm", SingleSocket: 0.3301, FourSockets: 1, Placed: 1, Combined: 0.9914,
		PlacedKept: true, CombinedKept: true},
	{App: "lr", System: "flink", SingleSocket: 0.2598, FourSockets: 1, Placed: 1.0349, Combined: 3.501, BestK: 4},
}

func TestFig14TableGolden(t *testing.T) {
	want := "" +
		"Fig 14 — NUMA-aware executor placement (normalized to 4 sockets w/o optimizations)\n" +
		"sys    app      1 socket  4 sockets    4s+placed  bestK\n" +
		"storm  wc            30%       100%         121%      1\n" +
		"storm  tm            33%       100%         100%      -  (kept unplaced)\n" +
		"flink  lr            26%       100%         103%      4\n"
	if got := Fig14Table(goldenPlacementRows); got != want {
		t.Errorf("Fig14Table drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestFig15TableGolden(t *testing.T) {
	want := "" +
		"Fig 15 — both optimizations (batching S=8 + placement), normalized to 4 sockets w/o optimizations\n" +
		"sys    app      1 socket  4 sockets      4s+both\n" +
		"storm  wc            30%       100%         402%\n" +
		"storm  tm            33%       100%          99%  (kept unplaced)\n" +
		"flink  lr            26%       100%         350%\n"
	if got := Fig15Table(goldenPlacementRows); got != want {
		t.Errorf("Fig15Table drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPlacementAblationTableGolden(t *testing.T) {
	rows := []PlacementAblationRow{
		{App: "wc", System: "storm", RoundRobin: 0.9412, MinKCut: 1.2149, ModelSearch: 1.2653},
		{App: "wc", System: "flink", RoundRobin: 0.9876, MinKCut: 1.1098, ModelSearch: 1.1098},
	}
	want := "" +
		"Ablation — placement strategy vs OS-spread baseline (4 sockets)\n" +
		"sys    app     round-robin    min-k-cut model-search\n" +
		"storm  wc              94%         121%         127%\n" +
		"flink  wc              99%         111%         111%\n"
	if got := PlacementAblationTable(rows); got != want {
		t.Errorf("PlacementAblationTable drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
