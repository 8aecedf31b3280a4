package hw

import (
	"testing"
	"testing/quick"

	"streamscale/internal/sim"
)

// The version-tag coherence proxy: a write makes copies cached by other
// cores stale, the writer's own copy upgrades in place, and a subsequent
// read by another core is served by a dirty-copy forward rather than home
// memory.
func TestCoherenceWriterRewriteHitsOwnCache(t *testing.T) {
	m := NewMachine(testSpec())
	addr := DataAddr(0, 4096)
	var v CostVec
	m.DataWrite(0, addr, 64, 0, &v) // cold
	cost := m.DataWrite(0, addr, 64, 100, &v)
	if cost != 0 {
		t.Fatalf("rewrite of own cached line cost %d, want 0 (M-state hit)", cost)
	}
}

func TestCoherenceRemoteCopyGoesStale(t *testing.T) {
	m := NewMachine(testSpec())
	addr := DataAddr(0, 4096)
	var v CostVec
	// Core 0 writes, core 9 (socket 1) reads and caches, core 0 rewrites.
	m.DataWrite(0, addr, 64, 0, &v)
	m.DataAccess(9, addr, 64, 100, &v)
	if c := m.DataAccess(9, addr, 64, 200, &v); c != 0 {
		t.Fatalf("re-read of cached copy cost %d, want 0", c)
	}
	m.DataWrite(0, addr, 64, 300, &v)
	var after CostVec
	if c := m.DataAccess(9, addr, 64, 400, &after); c == 0 {
		t.Fatal("remote reader hit a stale copy after the writer's update")
	}
	if after[BeLLCRemote] == 0 {
		t.Fatalf("invalidated read not served remotely: %+v", after)
	}
}

func TestCoherenceDirtyForwardSameSocket(t *testing.T) {
	m := NewMachine(testSpec())
	addr := DataAddr(0, 1<<20)
	var v CostVec
	m.DataWrite(0, addr, 64, 0, &v) // dirty in core 0's private caches
	var read CostVec
	m.DataAccess(3, addr, 64, 100, &read) // same socket, different core
	if read[BeLLCLocal] != 0 {
		t.Fatalf("same-socket dirty read charged to DRAM: %+v", read)
	}
	if read[BeL2] == 0 {
		t.Fatalf("same-socket dirty read not served as on-die forward: %+v", read)
	}
}

func TestCoherenceDirtyForwardCrossSocket(t *testing.T) {
	m := NewMachine(testSpec())
	// Line homed on socket 1, written by a core on socket 1, read from
	// socket 0: should be a QPI snoop forward, charged remote, even though
	// the READER's home calculation would call socket-1 memory "remote"
	// anyway; the interesting case is home == reader's socket:
	addr := DataAddr(0, 1<<20) // homed on socket 0
	var v CostVec
	m.DataWrite(8, addr, 64, 0, &v) // written by socket 1
	var read CostVec
	m.DataAccess(0, addr, 64, 100, &read) // reader on the home socket
	if read[BeLLCRemote] == 0 {
		t.Fatalf("cross-socket dirty line not fetched over QPI: %+v", read)
	}
	if read[BeLLCLocal] != 0 {
		t.Fatalf("cross-socket dirty line charged to local DRAM: %+v", read)
	}
}

func TestCoherenceNeverWrittenReadsUseHome(t *testing.T) {
	m := NewMachine(testSpec())
	var local, remote CostVec
	m.DataAccess(0, DataAddr(0, 2<<20), 64, 0, &local)
	m.DataAccess(0, DataAddr(2, 2<<20), 64, 0, &remote)
	if local[BeLLCLocal] == 0 || local[BeLLCRemote] != 0 {
		t.Fatalf("unwritten local line misattributed: %+v", local)
	}
	if remote[BeLLCRemote] == 0 || remote[BeLLCLocal] != 0 {
		t.Fatalf("unwritten remote line misattributed: %+v", remote)
	}
}

// Property: any interleaving of writes and reads from two cores never
// lets a reader observe a free (zero-cost) access immediately after the
// other core's write to the same line.
func TestCoherenceProperty(t *testing.T) {
	f := func(ops []bool) bool {
		m := NewMachine(testSpec())
		addr := DataAddr(0, 8192)
		var v CostVec
		now := int64(0)
		lastWriter := -1
		for _, isWrite := range ops {
			now += 1000
			if isWrite {
				m.DataWrite(0, addr, 64, simc(now), &v)
				lastWriter = 0
				continue
			}
			cost := m.DataAccess(9, addr, 64, simc(now), &v)
			if lastWriter == 0 && cost == 0 {
				return false // reader skipped the other core's update
			}
			lastWriter = -1 // reader now holds a fresh copy
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteAccessVUpgradeSemantics: a store's probe of a line it just
// bumped to version v also takes a copy at v-1, its core's own, and
// upgrades it; a load takes only a copy at its version.
func TestWriteAccessVUpgradeSemantics(t *testing.T) {
	c := NewCache(1, 2)
	if _, hit := c.access(5, 1, true); hit {
		t.Fatal("cold write reported hit")
	}
	if _, hit := c.access(5, 2, true); !hit {
		t.Fatal("ver-1 upgrade write missed")
	}
	if _, hit := c.access(5, 2, false); !hit {
		t.Fatal("read at current version missed after upgrade")
	}
	if _, hit := c.access(5, 7, false); hit {
		t.Fatal("read at future version hit a stale copy")
	}
}

// simc converts a test timestamp into sim cycles.
func simc(n int64) sim.Cycles { return sim.Cycles(n) }
