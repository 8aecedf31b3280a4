package hw

// lineVerTable maps a data line number to its coherence state. It is a
// linear-probing open-addressing hash table specialized for the simulator's
// hottest map: dataAccess consults it once per simulated line touched, so
// the generic map's hashing and bucket walk showed up as several percent of
// total run time. Entries are only ever inserted (a line's version starts
// at 1 on its first write and never returns to 0), so a slot is free iff
// its ver is 0 and no tombstones are needed. Lookups of unwritten lines
// return the zero lineState, matching the map's missing-key behaviour.
type lineVerTable struct {
	slots []lineSlot
	count int
	shift uint // 64 - log2(len(slots))
}

type lineSlot struct {
	key    uint64
	ver    uint32
	writer int8
}

const lineVerInitialSlots = 1 << 12

func newLineVerTable() *lineVerTable {
	return &lineVerTable{
		slots: make([]lineSlot, lineVerInitialSlots),
		shift: 64 - 12,
	}
}

// idx is a Fibonacci-multiplicative hash; line numbers are dense-ish per
// region but differ in high bits across regions, and the multiply mixes
// both into the top bits the shift keeps.
//
//dsp:hotpath
func (t *lineVerTable) idx(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

//dsp:hotpath
func (t *lineVerTable) get(key uint64) lineState {
	mask := len(t.slots) - 1
	for i := t.idx(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ver == 0 {
			return lineState{}
		}
		if s.key == key {
			return lineState{ver: s.ver, writer: s.writer}
		}
	}
}

// put inserts or updates a line's state. Amortized growth lives in the
// cold grow helper so the hot body itself never allocates.
//
//dsp:hotpath
func (t *lineVerTable) put(key uint64, st lineState) {
	mask := len(t.slots) - 1
	for i := t.idx(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key && s.ver != 0 {
			s.ver = st.ver
			s.writer = st.writer
			return
		}
		if s.ver == 0 {
			s.key = key
			s.ver = st.ver
			s.writer = st.writer
			t.count++
			if t.count*4 > len(t.slots)*3 {
				t.grow()
			}
			return
		}
	}
}

// reset forgets every line, keeping the table's grown storage (a larger
// table answers get and put exactly as a smaller one does).
func (t *lineVerTable) reset() {
	clear(t.slots)
	t.count = 0
}

func (t *lineVerTable) grow() {
	old := t.slots
	t.slots = make([]lineSlot, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.ver == 0 {
			continue
		}
		i := t.idx(s.key)
		for t.slots[i].ver != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
