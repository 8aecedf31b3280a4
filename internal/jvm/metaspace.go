package jvm

import (
	"fmt"

	"streamscale/internal/hw"
)

// Metaspace models the JVM's class-metadata region. Each loaded class has a
// method table (vtable) living on its own page; an invokevirtual dispatch
// touches the receiver class's vtable, which is the paper's "random
// accesses on method tables" source of DTLB pressure (§V-D). Metaspace is
// allocated once, on socket 0, as HotSpot's metaspace effectively is.
type Metaspace struct {
	classes map[string]uint64
	next    uint64
	page    uint64
}

// NewMetaspace creates an empty metaspace with the given page size.
func NewMetaspace(pageBytes int) *Metaspace {
	return &Metaspace{
		classes: make(map[string]uint64),
		page:    uint64(pageBytes),
		// Keep metaspace clear of the heap's young and tenured regions.
		next: metaspaceBase,
	}
}

// ClassID interns a class name and returns the address of its vtable. It
// panics if a new class's page would run past the end of socket 0's data
// window.
func (m *Metaspace) ClassID(name string) uint64 {
	if a, ok := m.classes[name]; ok {
		return a
	}
	if m.page > hw.DataWindowBytes-m.next {
		panic(fmt.Sprintf("jvm: class %q's %d-byte page at %#x runs past the metaspace's end at %#x",
			name, m.page, m.next, hw.DataWindowBytes))
	}
	a := hw.DataAddr(0, m.next)
	m.next += m.page
	m.classes[name] = a
	return a
}

// Loaded returns the number of distinct classes.
func (m *Metaspace) Loaded() int { return len(m.classes) }
