package jvm

import (
	"fmt"
	"strings"
	"testing"

	"streamscale/internal/hw"
)

// The simulated address space has four disjoint regions per socket: the
// circular young generation, the tenured region, the metaspace (socket 0),
// and the code range. Overlap would let unrelated state alias in the cache
// model.
func TestAddressRegionsDisjoint(t *testing.T) {
	cfg := G1()
	cfg.YoungBytes = 4 << 20
	h := NewHeap(4, cfg)
	ms := NewMetaspace(4096)

	youngMax := uint64(0)
	for i := 0; i < 10_000; i++ {
		a, _ := h.Alloc(2, 240)
		if off := hw.Offset(a); off > youngMax {
			youngMax = off
		}
	}
	tenured := h.AllocTenured(2, 1<<20)
	if hw.Offset(tenured) <= youngMax {
		t.Fatalf("tenured offset %#x inside young range (max %#x)", hw.Offset(tenured), youngMax)
	}

	meta := ms.ClassID("SomeClass")
	if hw.HomeSocket(meta) != 0 {
		t.Fatal("metaspace not on socket 0")
	}
	if hw.Offset(meta) <= hw.Offset(tenured) {
		t.Fatalf("metaspace offset %#x not above tenured %#x", hw.Offset(meta), hw.Offset(tenured))
	}
	if meta >= hw.CodeBase {
		t.Fatal("metaspace collides with the code range")
	}
	if !hw.IsData(meta) || !hw.IsData(tenured) {
		t.Fatal("heap addresses not classified as data")
	}
}

// The young generation wraps: allocations reuse addresses with the young
// generation's period, and never collide with tenured allocations made
// meanwhile.
func TestYoungGenerationWraps(t *testing.T) {
	cfg := G1()
	cfg.YoungBytes = 256 << 10 // 64 KB per socket
	h := NewHeap(4, cfg)
	first, _ := h.Alloc(1, 240)
	seen := map[uint64]bool{hw.Offset(first): true}
	wrapped := false
	for i := 0; i < 2_000; i++ {
		a, _ := h.Alloc(1, 240)
		if seen[hw.Offset(a)] {
			wrapped = true
			break
		}
		seen[hw.Offset(a)] = true
	}
	if !wrapped {
		t.Fatal("young generation never reused an address")
	}
	// Tenured allocations stay stable while young wraps.
	t1 := h.AllocTenured(1, 4096)
	for i := 0; i < 2_000; i++ {
		h.Alloc(1, 240)
	}
	t2 := h.AllocTenured(1, 4096)
	if t2 <= t1 {
		t.Fatal("tenured cursor moved backwards")
	}
	if hw.Offset(t1) < h.youngPer {
		t.Fatal("tenured allocation below the young region boundary")
	}
}

func TestHeapAccessors(t *testing.T) {
	h := NewHeap(2, G1())
	h.Alloc(0, 100)
	if h.AllocatedBytes() == 0 {
		t.Fatal("allocation not counted")
	}
	if h.Config().Kind != G1GC {
		t.Fatal("config accessor broken")
	}
	if G1GC.String() != "g1" || ParallelGC.String() != "parallel" {
		t.Fatal("collector names wrong")
	}
}

// Each region of the heap starts at a multiple of 2^28 on every socket,
// the condition under which hw's layout keeps every set index: the young
// generation at the window's start, the tenured region 1 GB in and the
// metaspace 1 GB before the window's end.
func TestRegionBasesAligned(t *testing.T) {
	const align = uint64(1) << 28
	h := NewHeap(hw.MaxSockets, G1())
	for s := 0; s < hw.MaxSockets; s++ {
		young, _ := h.Alloc(s, 0)
		for _, r := range []struct {
			name string
			addr uint64
		}{{"young", young}, {"tenured", h.AllocTenured(s, 0)}} {
			if r.addr%align != 0 {
				t.Errorf("socket %d: the %s region starts at %#x, not a multiple of 2^28", s, r.name, r.addr)
			}
		}
	}
	if meta := NewMetaspace(4096).ClassID("First"); meta%align != 0 || hw.Offset(meta) != metaspaceBase {
		t.Errorf("the metaspace starts at %#x, want offset %#x, a multiple of 2^28", meta, uint64(metaspaceBase))
	}
}

// mustPanic runs f and requires it to panic with a message containing want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %q, want a message containing %q", what, msg, want)
		}
	}()
	f()
}

// NewHeap refuses a young region that would reach the tenured region: a
// young generation of 1 GB per socket just fits.
func TestNewHeapYoungPastTenuredPanics(t *testing.T) {
	cfg := G1()
	cfg.YoungBytes = 2 * tenuredBase
	NewHeap(2, cfg)
	mustPanic(t, "NewHeap(1, 2 GB young)", "runs into the tenured region", func() { NewHeap(1, cfg) })
}

// AllocTenured refuses an allocation that would run into the metaspace:
// the tenured region's last byte allocates, and one more byte panics.
func TestAllocTenuredPastMetaspacePanics(t *testing.T) {
	h := NewHeap(1, G1())
	const chunk = 1 << 30 // allocation sizes are ints; fill the region a GB at a time
	for left := metaspaceBase - tenuredBase; left > 0; left -= chunk {
		h.AllocTenured(0, chunk)
	}
	mustPanic(t, "AllocTenured past the tenured region", "runs into the metaspace", func() { h.AllocTenured(0, 1) })
	if h := NewHeap(1, G1()); h.AllocTenured(0, 8) != hw.DataAddr(0, tenuredBase) {
		t.Fatal("a fresh heap's first tenured allocation is not at the tenured base")
	}
}

// ClassID refuses a class whose page would run past the end of socket 0's
// window.
func TestMetaspacePastWindowPanics(t *testing.T) {
	const page = 1 << 30
	ms := NewMetaspace(page)
	for i := uint64(0); i < (hw.DataWindowBytes-metaspaceBase)/page; i++ {
		ms.ClassID(fmt.Sprint("C", i))
	}
	mustPanic(t, "ClassID past the window", "runs past the metaspace's end", func() { ms.ClassID("OneTooMany") })
}
