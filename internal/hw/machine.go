package hw

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"streamscale/internal/sim"
)

// Machine is the hardware state of one simulated server: per-core private
// caches and TLBs, per-socket LLCs and DRAM channels, and QPI links.
// A Machine is not safe for concurrent use; the discrete-event simulation
// drives it from a single goroutine.
type Machine struct {
	Spec    MachineSpec
	cores   []*coreHW
	sockets []*socketHW
	qpi     [][]*Channel // [from][to], nil on the diagonal

	iBlockBytes int
	iBlockShift uint // log2(iBlockBytes)
	pageShift   uint

	// versions holds per written data line its coherence version (a write
	// bumps it, so copies cached elsewhere become stale; see Cache.AccessV)
	// and the socket of the last writer (so a read miss can be served by a
	// dirty-copy forward instead of home memory).
	versions *lineVerTable

	// charged is the cycle-conservation ledger: every charging method
	// (dataAccess, FetchCode, StreamAccess, Compute) adds the cycles it
	// returns here as well as to the caller's CostVec, so ChargedCycles
	// can be reconciled against the profiler's per-bucket aggregate.
	charged sim.Cycles

	// ops counts the charging walks; Ops adds the caches' probe counts.
	ops Ops
}

// Ops counts a machine's work since it was built or reset: the calls of
// each charging walk with the instruction blocks or data lines they
// covered, and every cache level's hits and misses, summed over cores (or
// sockets, for the LLC). The counts are pure observers: none feeds back
// into a charge.
type Ops struct {
	FetchCalls  uint64 `json:"fetch_calls"`
	FetchBlocks uint64 `json:"fetch_blocks"`
	DataCalls   uint64 `json:"data_calls"`
	DataLines   uint64 `json:"data_lines"`
	StreamCalls uint64 `json:"stream_calls"`

	L1I  Probes `json:"l1i"`
	Uop  Probes `json:"uop"`
	L1D  Probes `json:"l1d"`
	L2   Probes `json:"l2"`
	LLC  Probes `json:"llc"`
	ITLB Probes `json:"itlb"`
	DTLB Probes `json:"dtlb"`
	STLB Probes `json:"stlb"`
}

// Probes is one cache level's hit and miss count.
type Probes struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

func (p *Probes) add(hits, misses uint64) {
	p.Hits += hits
	p.Misses += misses
}

type lineState struct {
	ver    uint32
	writer int8
}

type coreHW struct {
	id     int
	socket int

	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	itlb *Cache
	dtlb *Cache
	stlb *Cache
	uop  uopRing // decoded-µop cache, keyed by L1I way

	// Instruction-footprint tracking (Fig 9), indexed by code-region id
	// (ids are dense): the logical sequence number of each region's last
	// invocation on this core (0 = never) and the size it executed then,
	// plus the regions seen, in first-invocation order.
	seq     uint64
	lastInv []uint64
	size    []int
	seen    []uint32
}

// uopRing is a core's decoded-µop cache (D-ICache): a fully associative
// LRU cache of instruction blocks, kept as a ring of L1I ways in recency
// order plus a "has µops" bit per L1I way. It is exact because every entry's
// block is resident in L1I at all times: an entry is installed only on an
// L1I hit or right after an L1I fill, it is dropped whenever L1I evicts its
// block, and code probes use version 0, so L1I never refills a block in
// place. An L1I way therefore names its entry, and the common case — an L1I
// hit on an unmarked way, a certain µop miss — costs O(1) instead of a scan
// of the µop cache. A ring of capacity 0 is a disabled µop cache.
type uopRing struct {
	ring   []int32 // L1I ways; ring[(head+i) % len(ring)] is the i-th most recent
	head   int
	n      int
	marked []bool // per L1I way: its block has an entry in ring

	hits, misses uint64
}

func newUopRing(entries, l1iWays int) uopRing {
	return uopRing{ring: make([]int32, entries), marked: make([]bool, l1iWays)}
}

// access looks up the µops of the block in L1I way w after an L1I hit: a
// hit refreshes the entry's recency, a miss decodes the block and installs
// it, dropping the least recent entry if the ring is full.
//
//dsp:hotpath
func (r *uopRing) access(w int) bool {
	if r.marked[w] {
		r.hits++
		r.toFront(w)
		return true
	}
	r.misses++
	r.push(w)
	return false
}

// fill installs the µops of a block L1I just filled into way w. If w was
// marked, the fill evicted the block of w's entry: dropping that entry and
// pushing the new one is moving w's entry to the front.
//
//dsp:hotpath
func (r *uopRing) fill(w int) {
	r.misses++
	if r.marked[w] {
		r.toFront(w)
		return
	}
	r.push(w)
}

// push makes unmarked way w the most recent entry; when the ring is full,
// the new front slot is the least recent entry's, which is dropped.
//
//dsp:hotpath
func (r *uopRing) push(w int) {
	if len(r.ring) == 0 {
		return
	}
	if r.head--; r.head < 0 {
		r.head = len(r.ring) - 1
	}
	if r.n == len(r.ring) {
		r.marked[r.ring[r.head]] = false
	} else {
		r.n++
	}
	r.ring[r.head] = int32(w)
	r.marked[w] = true
}

// toFront moves marked way w's entry to the front, shifting the entries
// more recent than it back by one.
//
//dsp:hotpath
func (r *uopRing) toFront(w int) {
	p := 0
	for r.ring[r.slot(p)] != int32(w) {
		p++
	}
	for ; p > 0; p-- {
		r.ring[r.slot(p)] = r.ring[r.slot(p-1)]
	}
	r.ring[r.head] = int32(w)
}

func (r *uopRing) slot(p int) int { return (r.head + p) % len(r.ring) }

func (r *uopRing) reset() {
	for p := 0; p < r.n; p++ {
		r.marked[r.ring[r.slot(p)]] = false
	}
	r.head, r.n, r.hits, r.misses = 0, 0, 0, 0
}

type socketHW struct {
	id   int
	llc  *Cache
	dram *Channel
}

// NewMachine builds the hardware state for spec.
func NewMachine(spec MachineSpec) *Machine {
	m := &Machine{
		Spec:        spec,
		iBlockBytes: spec.L1I.BlockBytes,
		iBlockShift: uint(bits.TrailingZeros(uint(spec.L1I.BlockBytes))),
		versions:    newLineVerTable(),
	}
	for s := 1 << 12; s < spec.PageBytes; s <<= 1 {
		m.pageShift++
	}
	m.pageShift += 12

	for sk := 0; sk < spec.Sockets; sk++ {
		m.sockets = append(m.sockets, &socketHW{
			id:   sk,
			llc:  CacheFor(spec.LLC.CapacityBytes, spec.LLC.BlockBytes, spec.LLC.Assoc),
			dram: NewChannel(spec.LocalBWBytesPerCycle),
		})
	}
	for c := 0; c < spec.TotalCores(); c++ {
		l1i := CacheFor(spec.L1I.CapacityBytes, spec.L1I.BlockBytes, spec.L1I.Assoc)
		m.cores = append(m.cores, &coreHW{
			id:     c,
			socket: c / spec.CoresPerSocket,
			l1i:    l1i,
			l1d:    CacheFor(spec.L1D.CapacityBytes, spec.L1D.BlockBytes, spec.L1D.Assoc),
			l2:     CacheFor(spec.L2.CapacityBytes, spec.L2.BlockBytes, spec.L2.Assoc),
			itlb:   NewCache(pow2Sets(spec.ITLB), spec.ITLB.Assoc),
			dtlb:   NewCache(pow2Sets(spec.DTLB), spec.DTLB.Assoc),
			stlb:   NewCache(pow2Sets(spec.STLB), spec.STLB.Assoc),
			// UopCacheBytes = 0 disables the decoded-µop cache for the
			// D-ICache ablation: every fetch then pays legacy decode.
			uop: newUopRing(spec.Decode.UopCacheBytes/spec.L1I.BlockBytes, l1i.Sets()*l1i.Assoc()),
		})
	}
	m.qpi = make([][]*Channel, spec.Sockets)
	for i := range m.qpi {
		m.qpi[i] = make([]*Channel, spec.Sockets)
		for j := range m.qpi[i] {
			if i != j {
				m.qpi[i][j] = NewChannel(spec.QPIBWBytesPerCycle)
			}
		}
	}
	return m
}

// machinePool is the free list AcquireMachine draws on: reset machines of
// any spec, at most GOMAXPROCS of them, oldest first.
var machinePool struct {
	sync.Mutex
	free []*Machine
}

// AcquireMachine returns a machine for spec in its just-built state: a
// released one when the free list holds one of that spec, else a new one.
// A cell-sized run spends most of its set-up building a machine, so the
// simulator reuses them.
func AcquireMachine(spec MachineSpec) *Machine {
	p := &machinePool
	p.Lock()
	for i, m := range p.free {
		if m.Spec == spec {
			p.free = slices.Delete(p.free, i, i+1)
			p.Unlock()
			return m
		}
	}
	p.Unlock()
	return NewMachine(spec)
}

// ReleaseMachine resets m and puts it on the free list, dropping the
// oldest machine there if the list is full. The caller must not use m
// again.
func ReleaseMachine(m *Machine) {
	m.Reset()
	p := &machinePool
	p.Lock()
	defer p.Unlock()
	if len(p.free) >= runtime.GOMAXPROCS(0) {
		p.free = slices.Delete(p.free, 0, 1)
	}
	p.free = append(p.free, m)
}

// Reset returns the machine to its just-built state: every cache, TLB and
// µop cache empty, no line written, idle channels, no footprint history, a
// zero ledger and zero counts. Its cost is proportional to the state the
// machine's runs touched since the last reset, not to its capacity: a cache
// resets by starting a new generation, and clears each set on its first
// probe after.
func (m *Machine) Reset() {
	for _, c := range m.cores {
		for _, cc := range []*Cache{c.l1i, c.l1d, c.l2, c.itlb, c.dtlb, c.stlb} {
			cc.Reset()
		}
		c.uop.reset()
		for _, g := range c.seen {
			c.lastInv[g], c.size[g] = 0, 0
		}
		c.seq, c.seen = 0, c.seen[:0]
	}
	for _, s := range m.sockets {
		s.llc.Reset()
		s.dram.Reset()
	}
	for _, row := range m.qpi {
		for _, ch := range row {
			if ch != nil {
				ch.Reset()
			}
		}
	}
	m.versions.reset()
	m.charged = 0
	m.ops = Ops{}
}

func pow2Sets(t TLBSpec) int { return floorPow2(t.Entries / t.Assoc) }

// SocketOfCore returns the socket a core belongs to.
func (m *Machine) SocketOfCore(core int) int { return m.cores[core].socket }

// DataAccess charges the cost of reading size bytes of data starting at
// addr from the given core at simulated time now, attributing stall cycles
// into out. It returns the total cycles charged.
func (m *Machine) DataAccess(core int, addr uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	return m.dataAccess(core, addr, size, false, now, out)
}

// DataWrite is DataAccess for a store: it additionally bumps each written
// line's coherence version, so copies cached by other cores become stale.
func (m *Machine) DataWrite(core int, addr uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	return m.dataAccess(core, addr, size, true, now, out)
}

// dataAccess walks the simulated memory hierarchy line by line — the
// single hottest loop in the model.
//
//dsp:hotpath
func (m *Machine) dataAccess(core int, addr uint64, size int, write bool, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	c := m.cores[core]
	mySock := c.socket
	spec := &m.Spec

	var total sim.Cycles
	first := addr &^ uint64(LineBytes-1)
	last := (addr + uint64(size) - 1) &^ uint64(LineBytes-1)
	m.ops.DataCalls++
	m.ops.DataLines += (last-first)/LineBytes + 1
	// lastPage tracks the page the previous line resolved: consecutive
	// lines usually share it, and a re-probe of the page just translated
	// is a guaranteed TLB hit that charges nothing and leaves the TLB's
	// relative LRU order unchanged, so it is skipped outright.
	lastPage := ^uint64(0)
	for line := first; ; line += LineBytes {
		// Address translation.
		page := line >> m.pageShift
		if page != lastPage {
			lastPage = page
			if !c.dtlb.Access(page) {
				var cost sim.Cycles
				if c.stlb.Access(page) {
					cost = spec.Latency.STLBHit
				} else {
					cost = spec.Latency.PageWalk
				}
				out.Add(BeDTLB, cost)
				total += cost
			}
		}

		key := line / LineBytes
		st := m.versions.get(key)
		written := st.ver != 0
		if write {
			st.ver++
			st.writer = int8(mySock)
			m.versions.put(key, st)
		}
		var l1Hit, l2Hit, llcHit bool
		if write {
			l1Hit = c.l1d.WriteAccessV(key, st.ver)
			if !l1Hit {
				l2Hit = c.l2.WriteAccessV(key, st.ver)
				if !l2Hit {
					llcHit = m.sockets[mySock].llc.WriteAccessV(key, st.ver)
				}
			}
		} else {
			l1Hit = c.l1d.AccessV(key, st.ver)
			if !l1Hit {
				l2Hit = c.l2.AccessV(key, st.ver)
				if !l2Hit {
					llcHit = m.sockets[mySock].llc.AccessV(key, st.ver)
				}
			}
		}
		switch {
		case l1Hit:
			// L1 hit: latency hidden by the out-of-order engine.
		case l2Hit:
			out.Add(BeL1D, spec.Latency.L2)
			total += spec.Latency.L2
		case llcHit:
			out.Add(BeL2, spec.Latency.LLC)
			total += spec.Latency.LLC
		case written && int(st.writer) == mySock:
			// The current copy is dirty in a same-socket private cache:
			// an on-die cache-to-cache forward, served at LLC-like cost.
			cost := spec.Latency.LLC + 12
			out.Add(BeL2, cost)
			total += cost
		case written && int(st.writer) != mySock:
			// Dirty in another socket's caches: a QPI snoop forward.
			qwait := m.qpi[mySock][int(st.writer)].Transfer(now+total, LineBytes)
			cost := spec.Latency.RemoteDRAM + qwait
			out.Add(BeLLCRemote, cost)
			total += cost
		default:
			home := mySock
			if IsData(line) {
				home = HomeSocket(line)
			}
			if home == mySock {
				wait := m.sockets[home].dram.Transfer(now+total, LineBytes)
				cost := spec.Latency.LocalDRAM + wait
				out.Add(BeLLCLocal, cost)
				total += cost
			} else {
				qwait := m.qpi[mySock][home].Transfer(now+total, LineBytes)
				dwait := m.sockets[home].dram.Transfer(now+total+qwait, LineBytes)
				cost := spec.Latency.RemoteDRAM + qwait + dwait
				out.Add(BeLLCRemote, cost)
				total += cost
			}
		}
		if line == last {
			break
		}
	}
	m.charged += total
	return total
}

// FetchCode charges the cost of fetching and decoding a code region of the
// given size at base on core, at simulated time now. This models one pass
// over the region's hot path, as executed by a function invocation.
//
//dsp:hotpath
func (m *Machine) FetchCode(core int, base uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	c := m.cores[core]
	spec := &m.Spec
	ib := uint64(m.iBlockBytes)

	var total sim.Cycles
	first := base &^ (ib - 1)
	last := (base + uint64(size) - 1) &^ (ib - 1)
	m.ops.FetchCalls++
	m.ops.FetchBlocks += (last-first)>>m.iBlockShift + 1
	// As in dataAccess: a page probe identical to the previous block's is
	// a guaranteed hit charging nothing, so it is skipped.
	lastPage := ^uint64(0)
	for block := first; ; block += ib {
		page := block >> m.pageShift
		if page != lastPage {
			lastPage = page
			if !c.itlb.Access(page) {
				var cost sim.Cycles
				if c.stlb.Access(page) {
					cost = spec.Latency.STLBHit
				} else {
					cost = spec.Latency.PageWalk
				}
				out.Add(FeITLB, cost)
				total += cost
			}
		}

		key := block >> m.iBlockShift
		if way, hit := c.l1i.AccessWay(key); hit {
			// An L1I hit is served by the decoded-µop cache, skipping fetch
			// and decode, or pays legacy decode.
			if !c.uop.access(way) {
				out.Add(FeILD, spec.Decode.ILDPerBlock)
				out.Add(FeIDQ, spec.Decode.IDQPerBlock)
				total += spec.Decode.ILDPerBlock + spec.Decode.IDQPerBlock
			}
		} else {
			// L1I miss: fetch from the unified hierarchy, drop the evicted
			// block's µops, pay the decode-pipeline switch penalty,
			// re-decode.
			var fetch sim.Cycles
			switch {
			case c.l2.Access(key):
				fetch = spec.Latency.L2
			case m.sockets[c.socket].llc.Access(key):
				fetch = spec.Latency.LLC
			default:
				wait := m.sockets[c.socket].dram.Transfer(now+total, m.iBlockBytes)
				fetch = spec.Latency.LocalDRAM + wait
			}
			out.Add(FeL1I, fetch)
			total += fetch

			out.Add(FeIDQ, spec.Decode.SwitchPenalty+spec.Decode.IDQPerBlock)
			out.Add(FeILD, spec.Decode.ILDPerBlock)
			total += spec.Decode.SwitchPenalty + spec.Decode.IDQPerBlock + spec.Decode.ILDPerBlock
			c.uop.fill(way)
		}
		if block == last {
			break
		}
	}
	m.charged += total
	return total
}

// StreamAccess charges a sequential streaming sweep over a large region
// (e.g. a map-matching scan of a road-network table). Hardware prefetchers
// hide per-line latency on such sweeps, so the cost is bandwidth-dominated:
// the region's bytes are booked on the home memory channel (and QPI when
// remote) and the cycles are charged to the LLC-miss bucket. The sweep is
// treated as non-temporal: it does not pollute the cache models.
//
//dsp:hotpath
func (m *Machine) StreamAccess(core int, addr uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	m.ops.StreamCalls++
	c := m.cores[core]
	home := c.socket
	if IsData(addr) {
		home = HomeSocket(addr)
	}
	var total sim.Cycles
	streamCycles := sim.Cycles(float64(size) / m.Spec.LocalBWBytesPerCycle * 1.15)
	if home == c.socket {
		wait := m.sockets[home].dram.Transfer(now, size)
		total = streamCycles + wait
		out.Add(BeLLCLocal, total)
	} else {
		qwait := m.qpi[c.socket][home].Transfer(now, size)
		dwait := m.sockets[home].dram.Transfer(now+qwait, size)
		qpiCycles := sim.Cycles(float64(size) / m.Spec.QPIBWBytesPerCycle)
		total = streamCycles + qpiCycles + qwait + dwait
		out.Add(BeLLCRemote, total)
	}
	m.charged += total
	return total
}

// Compute charges uops of straight-line computation plus branch
// misprediction stalls and returns the cycles charged.
//
//dsp:hotpath
func (m *Machine) Compute(uops int, mispredicts int, out *CostVec) sim.Cycles {
	tc := sim.Cycles(float64(uops) * m.Spec.CyclesPerUop)
	if uops > 0 && tc < 1 {
		tc = 1
	}
	tbr := sim.Cycles(mispredicts) * m.Spec.MispredictPenalty
	out.Add(TC, tc)
	out.Add(TBr, tbr)
	m.charged += tc + tbr
	return tc + tbr
}

// ChargedCycles returns the conservation ledger: the total cycles returned
// by every charging method since the machine was built or reset. Because each method
// attributes exactly the cycles it returns to cost-vector buckets, this
// must equal the sum over buckets of all CostVecs charged against this
// machine; package profiler's conservation test enforces the invariant
// end to end.
func (m *Machine) ChargedCycles() sim.Cycles { return m.charged }

// NoteInvocation records that function fn (with the given hot-code size in
// bytes) was invoked on core, and returns the instruction footprint — the
// bytes of other code executed on that core since fn's previous invocation.
// It returns -1 for the first invocation of fn on that core. Function ids
// are code-region ids, which are dense.
//
//dsp:hotpath
func (m *Machine) NoteInvocation(core int, fn uint32, size int) int {
	c := m.cores[core]
	if int(fn) >= len(c.lastInv) {
		c.growRegions(fn)
	}
	c.seq++
	footprint := -1
	if prev := c.lastInv[fn]; prev != 0 {
		footprint = 0
		for _, g := range c.seen {
			if g != fn && c.lastInv[g] > prev {
				footprint += c.size[g]
			}
		}
	} else {
		c.seen = append(c.seen, fn)
	}
	c.lastInv[fn] = c.seq
	c.size[fn] = size
	return footprint
}

// growRegions sizes the footprint slices to hold region id fn.
func (c *coreHW) growRegions(fn uint32) {
	n := max(int(fn)+1, 2*len(c.lastInv))
	c.lastInv = append(c.lastInv, make([]uint64, n-len(c.lastInv))...)
	c.size = append(c.size, make([]int, n-len(c.size))...)
}

// Ops returns the machine's operation counts since it was built or reset.
func (m *Machine) Ops() Ops {
	o := m.ops
	for _, c := range m.cores {
		o.L1I.add(c.l1i.hits, c.l1i.misses)
		o.Uop.add(c.uop.hits, c.uop.misses)
		o.L1D.add(c.l1d.hits, c.l1d.misses)
		o.L2.add(c.l2.hits, c.l2.misses)
		o.ITLB.add(c.itlb.hits, c.itlb.misses)
		o.DTLB.add(c.dtlb.hits, c.dtlb.misses)
		o.STLB.add(c.stlb.hits, c.stlb.misses)
	}
	for _, s := range m.sockets {
		o.LLC.add(s.llc.hits, s.llc.misses)
	}
	return o
}

// DRAMUtilization returns the mean DRAM channel utilization over the given
// sockets (all sockets if ids is nil) for the elapsed time.
func (m *Machine) DRAMUtilization(ids []int, elapsed sim.Cycles) float64 {
	want := map[int]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var sum float64
	n := 0
	for _, s := range m.sockets {
		if len(ids) > 0 && !want[s.id] {
			continue
		}
		sum += s.dram.Utilization(elapsed)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// QPIBytes returns total bytes moved over all QPI links.
func (m *Machine) QPIBytes() uint64 {
	var b uint64
	for i := range m.qpi {
		for j := range m.qpi[i] {
			if m.qpi[i][j] != nil {
				b += m.qpi[i][j].Bytes()
			}
		}
	}
	return b
}

// DRAMBytes returns total bytes read from the given socket's memory.
func (m *Machine) DRAMBytes(socket int) uint64 { return m.sockets[socket].dram.Bytes() }
