// Package phys models the SCC's physical storage: the off-die DDR3 memory
// behind four controllers, the per-core 8 KiB on-die message-passing
// buffers (MPBs), and the per-core test-and-set registers.
//
// The package is purely functional — bytes in, bytes out. All timing is
// charged by the chip layer (internal/scc), which knows the mesh geometry
// and the clock domains.
package phys

import (
	"encoding/binary"
	"fmt"
)

// Mem is the off-die DDR3 memory: a flat physical address space backed by
// lazily allocated frames so that a simulated gigabyte costs host memory
// only where it is touched.
//
// The frame index holds one pointer per frame, nil until first written: a
// slice header per frame would triple the index, which spans every frame
// of the address space, touched or not.
type Mem struct {
	size      uint64
	frameSize uint32
	frames    []*[]byte
}

// NewMem creates a memory of the given size with the given frame size.
// Size must be a multiple of the frame size.
func NewMem(size uint64, frameSize uint32) *Mem {
	if frameSize == 0 || size == 0 || size%uint64(frameSize) != 0 {
		panic(fmt.Sprintf("phys: invalid memory geometry size=%d frame=%d", size, frameSize))
	}
	return &Mem{
		size:      size,
		frameSize: frameSize,
		frames:    make([]*[]byte, size/uint64(frameSize)),
	}
}

// frame returns the backing bytes of frame pfn, or nil if unmaterialized.
func (m *Mem) frame(pfn uint32) []byte {
	if p := m.frames[pfn]; p != nil {
		return *p
	}
	return nil
}

// materialize returns frame pfn's backing bytes, allocating them (zeroed)
// if absent.
func (m *Mem) materialize(pfn uint32) []byte {
	if p := m.frames[pfn]; p != nil {
		return *p
	}
	f := make([]byte, m.frameSize)
	m.frames[pfn] = &f
	return f
}

// Size returns the physical address space size in bytes.
func (m *Mem) Size() uint64 { return m.size }

// FrameSize returns the frame size in bytes.
func (m *Mem) FrameSize() uint32 { return m.frameSize }

func (m *Mem) check(paddr uint32, n int) {
	if uint64(paddr)+uint64(n) > m.size {
		panic(fmt.Sprintf("phys: access [%#x,+%d) beyond memory size %#x", paddr, n, m.size))
	}
}

// Read copies len(dst) bytes starting at paddr into dst. Unbacked frames
// read as zero.
func (m *Mem) Read(paddr uint32, dst []byte) {
	m.check(paddr, len(dst))
	for len(dst) > 0 {
		pfn := paddr / m.frameSize
		off := paddr % m.frameSize
		n := int(m.frameSize - off)
		if n > len(dst) {
			n = len(dst)
		}
		if f := m.frame(pfn); f != nil {
			copy(dst[:n], f[off:])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		paddr += uint32(n)
	}
}

// Write copies src into memory starting at paddr, materializing frames as
// needed.
func (m *Mem) Write(paddr uint32, src []byte) {
	m.check(paddr, len(src))
	for len(src) > 0 {
		pfn := paddr / m.frameSize
		off := paddr % m.frameSize
		n := int(m.frameSize - off)
		if n > len(src) {
			n = len(src)
		}
		copy(m.materialize(pfn)[off:], src[:n])
		src = src[n:]
		paddr += uint32(n)
	}
}

// Read64 reads a little-endian uint64 at paddr.
func (m *Mem) Read64(paddr uint32) uint64 {
	var b [8]byte
	m.Read(paddr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Write64 writes a little-endian uint64 at paddr.
func (m *Mem) Write64(paddr uint32, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.Write(paddr, b[:])
}

// Read32 reads a little-endian uint32 at paddr.
func (m *Mem) Read32(paddr uint32) uint32 {
	var b [4]byte
	m.Read(paddr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 writes a little-endian uint32 at paddr.
func (m *Mem) Write32(paddr uint32, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(paddr, b[:])
}

// ZeroFrame clears one whole frame (used by the first-touch allocator).
func (m *Mem) ZeroFrame(pfn uint32) {
	if uint64(pfn) >= uint64(len(m.frames)) {
		panic(fmt.Sprintf("phys: frame %d out of range", pfn))
	}
	if f := m.frame(pfn); f != nil {
		for i := range f {
			f[i] = 0
		}
	}
}

// BackedFrames reports how many frames are materialized (test/diagnostics).
func (m *Mem) BackedFrames() int {
	n := 0
	for i := range m.frames {
		if m.frames[i] != nil {
			n++
		}
	}
	return n
}
