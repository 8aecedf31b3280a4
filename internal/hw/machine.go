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
//
// A machine may be built for a slice of its cores only (AcquireMachine):
// its first n cores, and the LLC of each socket one of them is on. The
// charging methods reach only the calling core's state and its socket's
// LLC, so a run on those cores cannot tell the slice from the whole
// machine. DRAM channels and QPI links are built for every socket, because
// the round-robin heap homes data on any socket.
type Machine struct {
	Spec    MachineSpec
	cores   []*coreHW    // the built cores, 0 to len(cores)-1
	sockets []*socketHW  // every socket; llc is nil until one of its cores is built
	qpi     [][]*Channel // [from][to], nil on the diagonal

	iBlockBytes int
	iBlockShift uint // log2(iBlockBytes)
	pageShift   uint
	codeKey     uint64 // CodeBase's block key: code block n's cache key is codeKey+n
	pageBlocks  uint64 // code blocks per page, less one: a page's blocks share n|pageBlocks

	// lines is the coherence directory: per written data line its version,
	// its last writer's socket and the sockets whose LLC holds its current
	// copy (linedir.go).
	lines lineDir

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

type coreHW struct {
	id     int
	socket int

	l1i  codeL1I
	l1d  *Cache
	l2   *Cache
	itlb *Cache
	dtlb *Cache
	stlb *Cache

	// Instruction-footprint tracking (Fig 9), indexed by code-region id
	// (ids are dense): the logical sequence number of each region's last
	// invocation on this core (0 = never) and the size it executed then,
	// plus the regions seen, in first-invocation order.
	seq     uint64
	lastInv []uint64
	size    []int
	seen    []uint32
}

type socketHW struct {
	id   int
	llc  *lastLevelCache
	dram *Channel
}

// NewMachine builds the hardware state for spec, every core of it.
func NewMachine(spec MachineSpec) *Machine {
	return buildMachine(spec, spec.TotalCores())
}

// buildMachine builds a machine for spec with its first n cores built.
func buildMachine(spec MachineSpec, n int) *Machine {
	m := &Machine{
		Spec:        spec,
		cores:       make([]*coreHW, 0, spec.TotalCores()),
		iBlockBytes: spec.L1I.BlockBytes,
		iBlockShift: uint(bits.TrailingZeros(uint(spec.L1I.BlockBytes))),
		lines:       newLineDir(),
	}
	for s := 1 << 12; s < spec.PageBytes; s <<= 1 {
		m.pageShift++
	}
	m.pageShift += 12
	m.codeKey = CodeBase >> m.iBlockShift
	if m.pageShift > m.iBlockShift {
		m.pageBlocks = 1<<(m.pageShift-m.iBlockShift) - 1
	}

	for sk := 0; sk < spec.Sockets; sk++ {
		m.sockets = append(m.sockets, &socketHW{id: sk, dram: NewChannel(spec.LocalBWBytesPerCycle)})
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
	m.build(n)
	return m
}

// build builds the machine's cores up to core n-1 that it lacks, with the
// LLCs of their sockets. A new core's state is empty, as a Reset leaves the
// built ones, so the machine stays in its just-built state.
func (m *Machine) build(n int) {
	spec := &m.Spec
	// The L2 and the TLBs keep MRU words (Cache); the L1D does not: only
	// 16.5% of its version-0 hits in a sim-cells pass are on its set's most
	// recently used way (EXPERIMENTS.md).
	for c := len(m.cores); c < n; c++ {
		s := m.sockets[c/spec.CoresPerSocket]
		if s.llc == nil {
			s.llc = newLastLevelCache(spec.LLC)
		}
		m.cores = append(m.cores, &coreHW{
			id:     c,
			socket: s.id,
			l1i:    newCodeL1I(spec.L1I),
			l1d:    cacheFor(spec.L1D, false),
			l2:     cacheFor(spec.L2, true),
			itlb:   NewCache(pow2Sets(spec.ITLB), spec.ITLB.Assoc),
			dtlb:   NewCache(pow2Sets(spec.DTLB), spec.DTLB.Assoc),
			stlb:   NewCache(pow2Sets(spec.STLB), spec.STLB.Assoc),
		})
	}
}

// machinePool is the free list AcquireMachine draws on: reset machines of
// any spec and slice, at most GOMAXPROCS of them, oldest first.
var machinePool struct {
	sync.Mutex
	free []*Machine
}

// AcquireMachine returns a machine for spec in its just-built state with
// at least its first cores cores built: a released one of that spec when
// the free list holds one, with any of those cores it lacks built onto it,
// else a new one built for those cores only. A cell-sized run spends most
// of its set-up building a machine, so the simulator reuses them; and most
// runs enable one socket or a few cores, whose slice of a Table III
// machine is a quarter of it or less.
func AcquireMachine(spec MachineSpec, cores int) *Machine {
	p := &machinePool
	p.Lock()
	for i, m := range p.free {
		if m.Spec == spec {
			p.free = slices.Delete(p.free, i, i+1)
			p.Unlock()
			m.build(cores)
			return m
		}
	}
	p.Unlock()
	return buildMachine(spec, cores)
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

// Reset returns the machine to its just-built state for the cores it has
// built: every cache and TLB empty, no line written, idle channels, no
// footprint history, a zero ledger and zero counts. A reset
// machine is indistinguishable from one built for the same cores. Its cost
// is proportional to the state the machine's runs touched since the last
// reset, not to its capacity: a cache resets by starting a new generation,
// and clears each set on its first probe after.
func (m *Machine) Reset() {
	for _, c := range m.cores {
		c.l1i.reset()
		for _, cc := range []*Cache{c.l1d, c.l2, c.itlb, c.dtlb, c.stlb} {
			cc.Reset()
		}
		for _, g := range c.seen {
			c.lastInv[g], c.size[g] = 0, 0
		}
		c.seq, c.seen = 0, c.seen[:0]
	}
	for _, s := range m.sockets {
		if s.llc != nil {
			s.llc.reset()
		}
		s.dram.Reset()
	}
	for _, row := range m.qpi {
		for _, ch := range row {
			if ch != nil {
				ch.Reset()
			}
		}
	}
	m.lines.reset()
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
// A line's coherence state is its directory record's (linedir.go). The
// L1D and the L2 hold each copy's version: a load needs the line's
// version, and a store, which bumps it first, also takes its core's own
// copy at the version before (Cache.access). The LLC holds none: a copy
// there is current, and a probe of it hits, while the line is at version 0
// or its LLC byte has the socket's bit. A load that reaches the LLC leaves
// the socket's copy current, so it sets the bit; a store leaves only its
// own socket's copy current, and only if its walk reached the LLC, so it
// sets the byte to that socket's bit or to 0. A store's probe asks whether
// the copy was current before the store, which is Cache.access's rule of a
// copy at the version before.
//
//dsp:hotpath
func (m *Machine) dataAccess(core int, addr uint64, size int, write bool, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	c := m.cores[core]
	mySock := c.socket
	myBit := uint8(1) << mySock
	llc := m.sockets[mySock].llc
	spec := &m.Spec

	var total sim.Cycles
	first := addr &^ uint64(LineBytes-1)
	last := (addr + uint64(size) - 1) &^ uint64(LineBytes-1)
	m.ops.DataCalls++
	m.ops.DataLines += (last-first)/LineBytes + 1
	// lastPage tracks the page the previous line resolved: consecutive
	// lines usually share it, and a re-probe of the page just translated
	// is a guaranteed TLB hit that charges nothing and leaves the TLB's
	// relative LRU order unchanged, so it is skipped outright. recPage and
	// rec do the same for the directory's pages.
	lastPage, recPage := ^uint64(0), ^uint64(0)
	var rec *pageRec
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
		if p := line >> dirPageShift; p != recPage {
			recPage = p
			if rec = m.lines.lookup(p); rec == nil && write {
				rec = m.lines.add(p)
			}
		}

		key := line / LineBytes
		li := key % pageLines
		var ver uint32
		var writer int
		current := true // this socket's LLC copy, if it holds one
		if rec != nil {
			ver, writer = rec.ver[li], int(rec.writer[li])
			current = ver == 0 || rec.llc[li]&myBit != 0
		}
		written := ver != 0
		if write {
			ver++
			writer = mySock
			rec.ver[li], rec.writer[li] = ver, int8(mySock)
		}
		var l2Hit, llcHit, reached bool
		_, l1Hit := c.l1d.access(key, ver, write)
		if !l1Hit {
			if _, l2Hit = c.l2.access(key, ver, write); !l2Hit {
				reached = true
				llcHit = llc.probe(key, current)
			}
		}
		switch {
		case write && reached:
			rec.llc[li] = myBit
		case write:
			rec.llc[li] = 0
		case reached && written:
			rec.llc[li] |= myBit
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
		case written && writer == mySock:
			// The current copy is dirty in a same-socket private cache:
			// an on-die cache-to-cache forward, served at LLC-like cost.
			cost := spec.Latency.LLC + 12
			out.Add(BeL2, cost)
			total += cost
		case written:
			// Dirty in another socket's caches: a QPI snoop forward.
			qwait := m.qpi[mySock][writer].Transfer(now+total, LineBytes)
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
// The walk goes page by page: one ITLB probe per page, then each of the
// page's blocks through the L1I index, and an L1I miss through the L2, the
// LLC and DRAM. Every block pays legacy decode, ILDPerBlock + IDQPerBlock
// (a DSP hot path never hits the decoded-µop cache, so the machine has
// none; DESIGN.md §6), and an L1I miss adds its fetch and the decode
// pipeline's SwitchPenalty. The charges are summed per bucket and added to
// out once.
//
//dsp:hotpath
func (m *Machine) FetchCode(core int, base uint64, size int, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	off := base - CodeBase
	first, last := off>>m.iBlockShift, (off+uint64(size)-1)>>m.iBlockShift
	if base < CodeBase || last >= maxCodeBlocks || last < first {
		codeOutOfRange(base, size)
	}
	m.ops.FetchCalls++
	m.ops.FetchBlocks += last - first + 1
	c := m.cores[core]
	l1i, l2, llc := &c.l1i, c.l2, m.sockets[c.socket].llc
	lat, dec := &m.Spec.Latency, &m.Spec.Decode
	perBlock := dec.ILDPerBlock + dec.IDQPerBlock
	var itlb, fetch, misses sim.Cycles
	var l2words uint64
	// As in dataAccess: a page probe identical to the previous one is a
	// guaranteed hit charging nothing, so it is skipped. A page of more
	// than scanBlocks blocks is walked in segments under its one probe.
	lastPage := ^uint64(0)
	for n := first; n <= last; {
		if page := (CodeBase + n<<m.iBlockShift) >> m.pageShift; page != lastPage {
			lastPage = page
			if !c.itlb.mruHit(page) && !c.itlb.lookup(page) {
				if c.stlb.Access(page) {
					itlb += lat.STLBHit
				} else {
					itlb += lat.PageWalk
				}
			}
		}
		// A segment is the page's blocks from n on, at most scanBlocks of
		// them, so within one index chunk. The L1I probes them all, and
		// its misses go on in order to the L2: most are their L2 set's
		// most recently used block, and the MRU word answers for those.
		end := min(last, n|m.pageBlocks, n|(scanBlocks-1))
		for missed := l1i.scan(l1i.chunk(n), n, end); missed != 0; missed &= missed - 1 {
			b := n + uint64(bits.TrailingZeros64(missed))
			switch key := m.codeKey + b; {
			case l2.mruWord(key):
				l2words++ // the L2's hits, counted once per call
				fetch += lat.L2
			case l2.lookup(key):
				fetch += lat.L2
			case llc.probe(key, true): // code is never written, so every copy is current
				fetch += lat.LLC
			default:
				// The channel books the block at the walk's time so far.
				at := now + itlb + fetch + sim.Cycles(b-first)*perBlock + misses*dec.SwitchPenalty
				fetch += lat.LocalDRAM + m.sockets[c.socket].dram.Transfer(at, m.iBlockBytes)
			}
			misses++
		}
		n = end + 1
	}
	l2.hits += l2words
	blocks := sim.Cycles(last - first + 1)
	out.Add(FeITLB, itlb)
	out.Add(FeL1I, fetch)
	out.Add(FeILD, blocks*dec.ILDPerBlock)
	out.Add(FeIDQ, blocks*dec.IDQPerBlock+misses*dec.SwitchPenalty)
	total := itlb + fetch + blocks*perBlock + misses*dec.SwitchPenalty
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
		o.L1D.add(c.l1d.hits, c.l1d.misses)
		o.L2.add(c.l2.hits, c.l2.misses)
		o.ITLB.add(c.itlb.hits, c.itlb.misses)
		o.DTLB.add(c.dtlb.hits, c.dtlb.misses)
		o.STLB.add(c.stlb.hits, c.stlb.misses)
	}
	for _, s := range m.sockets {
		if s.llc != nil {
			o.LLC.add(s.llc.hits, s.llc.misses)
		}
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
