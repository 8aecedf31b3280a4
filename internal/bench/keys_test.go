package bench

import "testing"

// TestCanonicalTailFields pins the cell-v4 key behavior for the open-loop
// fields: anything the runtime can observe must change the key, and two
// cells share a key exactly when they resolve to the same run — no more,
// no less.
func TestCanonicalTailFields(t *testing.T) {
	base := Cell{App: "wc", System: "storm", Sockets: 1}

	distinct := []Cell{
		base,
		{App: "wc", System: "storm", Sockets: 1, SourceRate: 1e5},
		{App: "wc", System: "storm", Sockets: 1, SourceRate: 2e5},
		{App: "wc", System: "storm", Sockets: 1, SourceRate: 1e5, COUncorrected: true},
		{App: "wc", System: "storm", Sockets: 1, SourceRate: 1e5, LatencySampleEvery: 1},
		{App: "wc", System: "storm", Sockets: 1, NoAck: true},
	}
	seen := map[string]int{}
	for i, c := range distinct {
		k := c.Canonical()
		if j, dup := seen[k]; dup {
			t.Errorf("cells %d and %d alias to the same key:\n%+v\n%+v", j, i, distinct[j], distinct[i])
		}
		seen[k] = i
	}

	same := []struct {
		name string
		a, b Cell
	}{
		{"negative rate is closed-loop",
			Cell{App: "wc", System: "storm", SourceRate: -3},
			Cell{App: "wc", System: "storm"}},
		{"CO flag invisible without a rate",
			Cell{App: "wc", System: "storm", COUncorrected: true},
			Cell{App: "wc", System: "storm"}},
		{"zero cadence is the runtime default of 8",
			Cell{App: "wc", System: "storm", LatencySampleEvery: 8},
			Cell{App: "wc", System: "storm"}},
		{"NoAck invisible on flink (acking already off)",
			Cell{App: "wc", System: "flink", NoAck: true},
			Cell{App: "wc", System: "flink"}},
	}
	for _, tc := range same {
		if ka, kb := tc.a.Canonical(), tc.b.Canonical(); ka != kb {
			t.Errorf("%s: keys differ\n%s\n%s", tc.name, ka, kb)
		}
	}

	// NoAck must stay visible on storm — the runtime turns acking off.
	withNoAck := Cell{App: "wc", System: "storm", Sockets: 1, NoAck: true}
	if withNoAck.Canonical() == base.Canonical() {
		t.Error("NoAck aliased on storm, where the runtime observes it")
	}
}
