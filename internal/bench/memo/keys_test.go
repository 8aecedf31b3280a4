package memo_test

import (
	"testing"

	"streamscale/internal/bench"
	"streamscale/internal/bench/memo"
	"streamscale/internal/jvm"
)

// base is the reference cell every single-field variant mutates.
func base() bench.Cell {
	return bench.Cell{App: "wc", System: "storm", Sockets: 1}
}

// TestCanonicalSingleFieldDifferences pins the key property of the cache
// key: changing any single observable field of a Cell — including one
// entry of a map field — changes the canonical serialization, and
// therefore the hash. Every variant must also differ from every other.
func TestCanonicalSingleFieldDifferences(t *testing.T) {
	smallYoung := jvm.G1()
	smallYoung.YoungBytes = 1 << 20 // below the >=64MB clamp, so it survives
	survivor := jvm.G1()
	survivor.SurvivorFraction = 0.5

	variants := []struct {
		name string
		mut  func(*bench.Cell)
	}{
		{"app", func(c *bench.Cell) { c.App = "fd" }},
		{"system", func(c *bench.Cell) { c.System = "flink" }},
		{"sockets", func(c *bench.Cell) { c.Sockets = 2 }},
		{"cores", func(c *bench.Cell) { c.Cores = 4 }},
		{"batch", func(c *bench.Cell) { c.BatchSize = 4 }},
		{"placement", func(c *bench.Cell) { c.Placement = map[int]int{0: 1} }},
		{"placement-value", func(c *bench.Cell) { c.Placement = map[int]int{0: 2} }},
		{"placement-key", func(c *bench.Cell) { c.Placement = map[int]int{1: 1} }},
		{"placement-extra-entry", func(c *bench.Cell) { c.Placement = map[int]int{0: 1, 5: 2} }},
		{"eventscale", func(c *bench.Cell) { c.EventScale = 2 }},
		{"scale", func(c *bench.Cell) { c.Scale = 2 }},
		{"seed", func(c *bench.Cell) { c.Seed = 7 }},
		{"gc-kind", func(c *bench.Cell) { c.GC = jvm.Parallel() }},
		{"gc-young", func(c *bench.Cell) { c.GC = smallYoung }},
		{"gc-survivor", func(c *bench.Cell) { c.GC = survivor }},
		{"spec", func(c *bench.Cell) { c.Spec = "turbo" }},
		{"hugepages", func(c *bench.Cell) { c.HugePages = true }},
		{"chaining", func(c *bench.Cell) { c.Chaining = true }},
		{"paroverride", func(c *bench.Cell) { c.ParallelismOverride = map[string]int{"split": 2} }},
		{"paroverride-value", func(c *bench.Cell) { c.ParallelismOverride = map[string]int{"split": 3} }},
		{"paroverride-key", func(c *bench.Cell) { c.ParallelismOverride = map[string]int{"count": 2} }},
		// A joint-search verification cell (override + placement) must never
		// collide with the fixed-parallelism cell that shares its placement.
		{"paroverride-with-placement", func(c *bench.Cell) {
			c.Placement = map[int]int{0: 1}
			c.ParallelismOverride = map[string]int{"split": 2}
		}},
	}

	seen := map[string]string{base().Canonical(): "base"}
	for _, v := range variants {
		c := base()
		v.mut(&c)
		canon := c.Canonical()
		if prev, dup := seen[canon]; dup {
			t.Errorf("%s: canonical collides with %s:\n%s", v.name, prev, canon)
			continue
		}
		seen[canon] = v.name
	}
}

// TestCanonicalMapOrderInvariance pins that map insertion order never
// leaks into the key: the same placement and parallelism maps built in
// opposite orders serialize identically.
func TestCanonicalMapOrderInvariance(t *testing.T) {
	fwd := base()
	fwd.Placement = map[int]int{}
	fwd.ParallelismOverride = map[string]int{}
	for i := 0; i < 8; i++ {
		fwd.Placement[i] = i % 4
	}
	for _, op := range []string{"split", "count", "source", "sink"} {
		fwd.ParallelismOverride[op] = len(op)
	}

	rev := base()
	rev.Placement = map[int]int{}
	rev.ParallelismOverride = map[string]int{}
	for i := 7; i >= 0; i-- {
		rev.Placement[i] = i % 4
	}
	for _, op := range []string{"sink", "source", "count", "split"} {
		rev.ParallelismOverride[op] = len(op)
	}

	if fwd.Canonical() != rev.Canonical() {
		t.Fatalf("insertion order leaked into canonical:\n%s\nvs\n%s", fwd.Canonical(), rev.Canonical())
	}
}

// TestCanonicalRuntimeClamps pins the safe equivalences: pairs of cells
// the runtime provably cannot distinguish (each pair resolves to the same
// run in the runtime or app builder) share one canonical.
func TestCanonicalRuntimeClamps(t *testing.T) {
	bigYoungA, bigYoungB := jvm.G1(), jvm.G1()
	bigYoungA.YoungBytes = 256 << 20
	bigYoungB.YoungBytes = 128 << 20 // both clamp to the same sim young gen

	pairs := []struct {
		name string
		a, b func(*bench.Cell)
	}{
		{"batch 0 == 1", func(c *bench.Cell) { c.BatchSize = 0 }, func(c *bench.Cell) { c.BatchSize = 1 }},
		{"seed 0 == 1", func(c *bench.Cell) { c.Seed = 0 }, func(c *bench.Cell) { c.Seed = 1 }},
		{"scale 0 == 1", func(c *bench.Cell) { c.Scale = 0 }, func(c *bench.Cell) { c.Scale = 1 }},
		{"sockets 0 == full machine", func(c *bench.Cell) { c.Sockets = 0 }, func(c *bench.Cell) { c.Sockets = 4 }},
		{"spec-aware socket clamp", func(c *bench.Cell) { c.Spec = "2x16"; c.Sockets = 0 }, func(c *bench.Cell) { c.Spec = "2x16"; c.Sockets = 2 }},
		{"cores 0 == all enabled", func(c *bench.Cell) { c.Sockets = 4; c.Cores = 0 }, func(c *bench.Cell) { c.Sockets = 4; c.Cores = 32 }},
		{"eventscale 0 == 1.0", func(c *bench.Cell) { c.EventScale = 0 }, func(c *bench.Cell) { c.EventScale = 1.0 }},
		{"gc zero == G1", func(c *bench.Cell) { c.GC = jvm.Config{} }, func(c *bench.Cell) { c.GC = jvm.G1() }},
		{"gc young clamp", func(c *bench.Cell) { c.GC = bigYoungA }, func(c *bench.Cell) { c.GC = bigYoungB }},
		{"nil placement == empty", func(c *bench.Cell) { c.Placement = nil }, func(c *bench.Cell) { c.Placement = map[int]int{} }},
		{"paroverride 0 == 1", func(c *bench.Cell) { c.ParallelismOverride = map[string]int{"split": 0} },
			func(c *bench.Cell) { c.ParallelismOverride = map[string]int{"split": 1} }},
		{"paroverride -3 == 1", func(c *bench.Cell) { c.ParallelismOverride = map[string]int{"split": -3} },
			func(c *bench.Cell) { c.ParallelismOverride = map[string]int{"split": 1} }},
	}
	for _, p := range pairs {
		ca, cb := base(), base()
		p.a(&ca)
		p.b(&cb)
		if ca.Canonical() != cb.Canonical() {
			t.Errorf("%s: canonicals differ:\n%s\nvs\n%s", p.name, ca.Canonical(), cb.Canonical())
		}
	}
}

// TestFingerprintInvalidatesKey pins that the same cell keys differently
// under different build fingerprints — the property that makes persisted
// results die with the build that produced them.
func TestFingerprintInvalidatesKey(t *testing.T) {
	canon := base().Canonical()
	if memo.New("build-a").Key(canon) == memo.New("build-b").Key(canon) {
		t.Fatal("cache key ignores the build fingerprint")
	}
}
