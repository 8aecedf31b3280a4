package hw

import (
	"testing"

	"streamscale/internal/sim"
)

// refWalk is the data walk as it was when every cache level kept the
// version each copy was filled at and a hash table kept each written
// line's version and last writer: Machine.dataAccess over a refCache at
// every level, with the lines' coherence state in a map.
// FuzzDataWalkMatchesReference holds the machine's walk to it.
type refWalk struct {
	spec      MachineSpec
	pageShift uint
	cores     []refCore
	llc       []*refCache
	dram      []*Channel
	qpi       [][]*Channel
	lines     map[uint64]refLine
	dataCalls uint64
	dataLines uint64
	charged   sim.Cycles
}

type refCore struct {
	socket              int
	l1d, l2, dtlb, stlb *refCache
}

type refLine struct {
	ver    uint32
	writer int8
}

func newRefWalk(spec MachineSpec) *refWalk {
	shape := func(cs CacheSpec) *refCache {
		return newRefCache(floorPow2(cs.CapacityBytes/cs.BlockBytes/cs.Assoc), cs.Assoc)
	}
	r := &refWalk{spec: spec, lines: map[uint64]refLine{}}
	for s := 4096; s < spec.PageBytes; s <<= 1 {
		r.pageShift++
	}
	r.pageShift += 12
	for sk := 0; sk < spec.Sockets; sk++ {
		r.llc = append(r.llc, shape(spec.LLC))
		r.dram = append(r.dram, NewChannel(spec.LocalBWBytesPerCycle))
		row := make([]*Channel, spec.Sockets)
		for j := range row {
			if j != sk {
				row[j] = NewChannel(spec.QPIBWBytesPerCycle)
			}
		}
		r.qpi = append(r.qpi, row)
	}
	for c := 0; c < spec.TotalCores(); c++ {
		r.cores = append(r.cores, refCore{
			socket: c / spec.CoresPerSocket,
			l1d:    shape(spec.L1D),
			l2:     shape(spec.L2),
			dtlb:   newRefCache(pow2Sets(spec.DTLB), spec.DTLB.Assoc),
			stlb:   newRefCache(pow2Sets(spec.STLB), spec.STLB.Assoc),
		})
	}
	return r
}

// access is dataAccess before the line directory, but for its names.
func (r *refWalk) access(core int, addr uint64, size int, write bool, now sim.Cycles, out *CostVec) sim.Cycles {
	if size <= 0 {
		return 0
	}
	c := &r.cores[core]
	mySock := c.socket
	spec := &r.spec
	var total sim.Cycles
	first := addr &^ uint64(LineBytes-1)
	last := (addr + uint64(size) - 1) &^ uint64(LineBytes-1)
	r.dataCalls++
	r.dataLines += (last-first)/LineBytes + 1
	lastPage := ^uint64(0)
	for line := first; ; line += LineBytes {
		page := line >> r.pageShift
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
		st := r.lines[key]
		written := st.ver != 0
		if write {
			st.ver++
			st.writer = int8(mySock)
			r.lines[key] = st
		}
		var l1Hit, l2Hit, llcHit bool
		if write {
			l1Hit = c.l1d.WriteAccessV(key, st.ver)
			if !l1Hit {
				l2Hit = c.l2.WriteAccessV(key, st.ver)
				if !l2Hit {
					llcHit = r.llc[mySock].WriteAccessV(key, st.ver)
				}
			}
		} else {
			l1Hit = c.l1d.AccessV(key, st.ver)
			if !l1Hit {
				l2Hit = c.l2.AccessV(key, st.ver)
				if !l2Hit {
					llcHit = r.llc[mySock].AccessV(key, st.ver)
				}
			}
		}
		switch {
		case l1Hit:
		case l2Hit:
			out.Add(BeL1D, spec.Latency.L2)
			total += spec.Latency.L2
		case llcHit:
			out.Add(BeL2, spec.Latency.LLC)
			total += spec.Latency.LLC
		case written && int(st.writer) == mySock:
			cost := spec.Latency.LLC + 12
			out.Add(BeL2, cost)
			total += cost
		case written && int(st.writer) != mySock:
			qwait := r.qpi[mySock][int(st.writer)].Transfer(now+total, LineBytes)
			cost := spec.Latency.RemoteDRAM + qwait
			out.Add(BeLLCRemote, cost)
			total += cost
		default:
			home := mySock
			if IsData(line) {
				home = HomeSocket(line)
			}
			if home == mySock {
				wait := r.dram[home].Transfer(now+total, LineBytes)
				cost := spec.Latency.LocalDRAM + wait
				out.Add(BeLLCLocal, cost)
				total += cost
			} else {
				qwait := r.qpi[mySock][home].Transfer(now+total, LineBytes)
				dwait := r.dram[home].Transfer(now+total+qwait, LineBytes)
				cost := spec.Latency.RemoteDRAM + qwait + dwait
				out.Add(BeLLCRemote, cost)
				total += cost
			}
		}
		if line == last {
			break
		}
	}
	r.charged += total
	return total
}

// ops returns what Machine.Ops returns after the same calls.
func (r *refWalk) ops() Ops {
	o := Ops{DataCalls: r.dataCalls, DataLines: r.dataLines}
	for _, c := range r.cores {
		o.L1D.add(c.l1d.Hits(), c.l1d.Misses())
		o.L2.add(c.l2.Hits(), c.l2.Misses())
		o.DTLB.add(c.dtlb.Hits(), c.dtlb.Misses())
		o.STLB.add(c.stlb.Hits(), c.stlb.Misses())
	}
	for _, l := range r.llc {
		o.LLC.add(l.Hits(), l.Misses())
	}
	return o
}

// walkSpec is a Table III machine shrunk until a few pages of lines fill
// its caches: 2 sockets of 2 cores, an L1D of 4 sets and an L2 of 8 sets
// of 2 ways, a DTLB of 4 entries and an STLB of 8, and an LLC of 1,024
// sets of 12 ways, the fewest sets whose packed tags hold a data line's
// key. FuzzDataWalkMatchesReference spaces its pages 64 KB apart, so that
// their lines share 64 of the LLC's sets, 16 lines to a set.
func walkSpec() MachineSpec {
	s := TableIII()
	s.Sockets, s.CoresPerSocket = 2, 2
	s.L1D = CacheSpec{CapacityBytes: 4 * 2 * LineBytes, BlockBytes: LineBytes, Assoc: 2}
	s.L2 = CacheSpec{CapacityBytes: 8 * 2 * LineBytes, BlockBytes: LineBytes, Assoc: 2}
	s.LLC = CacheSpec{CapacityBytes: 1024 * 12 * LineBytes, BlockBytes: LineBytes, Assoc: 12}
	s.DTLB = TLBSpec{Entries: 4, Assoc: 2}
	s.STLB = TLBSpec{Entries: 8, Assoc: 4}
	return s
}

// FuzzDataWalkMatchesReference runs a walkSpec machine's DataAccess and
// DataWrite and the reference walk through one stream of calls and
// requires the same returned cycles, cost vector, ChargedCycles and Ops
// after every call.
//
// Each 3-byte group [a, b, c] is one call, or, when a's top four bits are
// all set, a Reset of the machine and a fresh reference. Core a&3 stores
// (a&4) or loads 128 bytes (a&8) or 8, at a line of one of eight pages
// homed on socket b&1 (page b>>1&7, 64 KB apart, line c&63) and 0, 20, 40
// or 60 bytes into it (c>>6), so calls span two or three lines and
// sometimes two pages. The clock moves on by each call's cycles and b
// more.
func FuzzDataWalkMatchesReference(f *testing.F) {
	spec := walkSpec()
	f.Fuzz(func(t *testing.T, in []byte) {
		m, ref := NewMachine(spec), newRefWalk(spec)
		now := sim.Cycles(0)
		for p := 0; p+3 <= len(in); p += 3 {
			a, b, c := in[p], in[p+1], in[p+2]
			if a>>4 == 0xF {
				m.Reset()
				ref = newRefWalk(spec)
				continue
			}
			core, write, size := int(a&3), a&4 != 0, 8
			if a&8 != 0 {
				size = 128
			}
			addr := DataAddr(int(b&1), uint64(b>>1&7)<<16|uint64(c&63)*LineBytes+uint64(c>>6)*20)
			var got, want CostVec
			gotC := m.dataAccess(core, addr, size, write, now, &got)
			wantC := ref.access(core, addr, size, write, now, &want)
			if gotC != wantC || got != want {
				t.Fatalf("call %d (core %d, write %v, %d B at %#x): %d cycles as %v, reference %d as %v", p/3, core, write, size, addr, gotC, got, wantC, want)
			}
			if m.ChargedCycles() != ref.charged {
				t.Fatalf("call %d: charged %d, reference %d", p/3, m.ChargedCycles(), ref.charged)
			}
			if m.Ops() != ref.ops() {
				t.Fatalf("call %d: ops %+v, reference %+v", p/3, m.Ops(), ref.ops())
			}
			now += gotC + sim.Cycles(b)
		}
	})
}
