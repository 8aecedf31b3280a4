package hw

import "fmt"

// Simulated address space layout: 38 bits.
//
// Data addresses have bit 37 set and carry their NUMA home socket in bits
// 34..36, so each of up to MaxSockets sockets homes a window of
// DataWindowBytes (16 GB); code addresses start at CodeBase, 2^38. The two
// ranges never collide, so code and data can share cache tag space safely.
// A data line's key (its address over LineBytes) is below 2^32 and a code
// block's is below 2^30, which is what lets a cache way keep a 32-bit tag
// and an LLC set a 24-bit one.
//
// The layout moves no set index. Every region base (CodeBase, each
// socket's window and the jvm's young, tenured and metaspace regions in
// it) is a multiple of 2^28, and no set index of Table
// III or its variants reads an address bit at or above 28, so two
// addresses share a set exactly when they did with the regions anywhere
// else on such bases.
const (
	dataBit    = uint64(1) << 37
	sockShift  = 34
	sockMask   = uint64(MaxSockets-1) << sockShift
	offsetMask = DataWindowBytes - 1

	// MaxSockets is the most sockets data can be homed on.
	MaxSockets = 8
	// DataWindowBytes is the size of each socket's data window: the
	// offsets DataAddr accepts.
	DataWindowBytes = uint64(1) << sockShift

	// CodeBase is the start of the simulated code address range.
	CodeBase = uint64(1) << 38

	// LineBytes is the data cache line size.
	LineBytes = 64
)

// DataAddr builds a data address homed on the given socket. It panics on a
// socket outside [0, MaxSockets) or an offset past the socket's window,
// which would otherwise name another socket's line or a code block.
func DataAddr(socket int, offset uint64) uint64 {
	if uint(socket) >= MaxSockets || offset > offsetMask {
		dataOutOfRange(socket, offset)
	}
	return dataBit | uint64(socket)<<sockShift | offset
}

// dataOutOfRange panics with DataAddr's fault.
func dataOutOfRange(socket int, offset uint64) {
	panic(fmt.Sprintf("hw: data address of socket %d at offset %#x is outside the layout (%d sockets of %#x bytes)",
		socket, offset, MaxSockets, DataWindowBytes))
}

// HomeSocket returns the NUMA home of a data address.
func HomeSocket(addr uint64) int {
	return int((addr & sockMask) >> sockShift)
}

// IsData reports whether addr is in the data range.
func IsData(addr uint64) bool { return addr&dataBit != 0 && addr < CodeBase }

// Offset returns the within-socket offset of a data address.
func Offset(addr uint64) uint64 { return addr & offsetMask }
