package hw

// lineDir is the machine's coherence directory: for every data line a
// store has reached, its version (a store bumps it, so copies its cache
// ways hold at older versions are stale), its last writer's socket (so a
// read miss can be served by a dirty-copy forward instead of home memory)
// and the sockets whose LLC holds its current copy (so the LLC keeps no
// versions). It keeps one record per 4 KB page of pageLines lines, found
// through an open-addressing index of page numbers that the data walk
// reads once per page per call. A page no store has reached has no record:
// its lines are at version 0, and every cached copy of them is current.
//
// A run writes a few hundred pages at most, and most of the lines it reads
// were never written, so the records are dense where the old per-line
// hash table's slots were sparse. Records are only ever added; Reset
// clears the ones in use and the index and keeps the storage of both.
type lineDir struct {
	recs  []pageRec // the records in use, in the order their pages were first written
	index []dirSlot // open addressing by page number; rec 0 marks a free slot
	shift uint      // 64 - log2(len(index))
}

// pageRec is one page's lines, by line index within the page.
type pageRec struct {
	ver    [pageLines]uint32 // the line's version: 0 until a store reaches it
	writer [pageLines]int8   // the socket of its last store
	llc    [pageLines]uint8  // bit s: socket s's LLC holds its current copy (addr.go homes data on at most 8 sockets)
}

// dirSlot maps a page number to its record, recs[rec-1].
type dirSlot struct {
	page uint64
	rec  uint32
}

const (
	dirPageShift = 12 // the directory's pages are 4 KB whatever the TLBs' page size
	pageLines    = 1 << dirPageShift / LineBytes

	// dirInitialBits sets the index's size at build, 256 slots: 192
	// pages before it first doubles.
	dirInitialBits = 8
)

func newLineDir() lineDir {
	return lineDir{index: make([]dirSlot, 1<<dirInitialBits), shift: 64 - dirInitialBits}
}

// slot returns the index slot a probe for page starts at: a
// Fibonacci-multiplicative hash, which mixes the socket bits and the
// offset of a data page into the top bits the shift keeps.
//
//dsp:hotpath
func (d *lineDir) slot(page uint64) int {
	return int(page * 0x9E3779B97F4A7C15 >> d.shift)
}

// lookup returns page's record, or nil if no store has reached the page.
//
//dsp:hotpath
func (d *lineDir) lookup(page uint64) *pageRec {
	mask := len(d.index) - 1
	for i := d.slot(page); ; i = (i + 1) & mask {
		s := &d.index[i]
		if s.rec == 0 {
			return nil
		}
		if s.page == page {
			return &d.recs[s.rec-1]
		}
	}
}

// add adds a zeroed record for page, which has none, and returns it. It
// may move the records, so a pointer lookup or add returned before is
// invalid after.
func (d *lineDir) add(page uint64) *pageRec {
	if 4*(len(d.recs)+1) > 3*len(d.index) {
		old := d.index
		d.index = make([]dirSlot, 2*len(old))
		d.shift--
		for _, s := range old {
			if s.rec != 0 {
				d.insert(s)
			}
		}
	}
	d.recs = append(d.recs, pageRec{})
	d.insert(dirSlot{page: page, rec: uint32(len(d.recs))})
	return &d.recs[len(d.recs)-1]
}

// insert puts s in the first free slot of its page's probe sequence.
func (d *lineDir) insert(s dirSlot) {
	mask := len(d.index) - 1
	i := d.slot(s.page)
	for d.index[i].rec != 0 {
		i = (i + 1) & mask
	}
	d.index[i] = s
}

// reset forgets every page. It keeps the index's size and the records'
// storage: add zeroes a record when it reuses one.
func (d *lineDir) reset() {
	clear(d.index)
	d.recs = d.recs[:0]
}
