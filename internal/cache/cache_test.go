package cache

import (
	"testing"
	"testing/quick"
)

func fill32(v byte) []byte {
	b := make([]byte, LineSize)
	for i := range b {
		b[i] = v
	}
	return b
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1234) != 0x1220 {
		t.Fatalf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if LineAddr(0x1220) != 0x1220 {
		t.Fatal("aligned address changed")
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := New("l1", 1024, 2)
	var b [4]byte
	if c.Load(0x100, b[:]) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x100, fill32(7), false)
	if !c.Load(0x104, b[:]) {
		t.Fatal("miss after fill")
	}
	if b[0] != 7 {
		t.Fatalf("loaded %v", b[0])
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c := New("l1", 1024, 2)
	if c.WriteThrough(0x200, []byte{1, 2, 3, 4}) {
		t.Fatal("write miss claimed to update a line")
	}
	var b [4]byte
	if c.Load(0x200, b[:]) {
		t.Fatal("write allocated a line despite no-write-allocate policy")
	}
}

func TestWriteThroughUpdatesPresentLine(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x300, fill32(0xaa), false)
	if !c.WriteThrough(0x304, []byte{1, 2}) {
		t.Fatal("write hit not detected")
	}
	var b [8]byte
	c.Load(0x300, b[:])
	want := [8]byte{0xaa, 0xaa, 0xaa, 0xaa, 1, 2, 0xaa, 0xaa}
	if b != want {
		t.Fatalf("line after write-through = %v, want %v", b, want)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 ways, 2 sets (128 bytes): lines 0x000, 0x080, 0x100 share set 0.
	c := New("tiny", 128, 2)
	c.Fill(0x000, fill32(1), false)
	c.Fill(0x080, fill32(2), false)
	var b [1]byte
	c.Load(0x000, b[:]) // touch 0x000 so 0x080 is LRU
	c.Fill(0x100, fill32(3), false)
	if !c.Contains(0x000) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(0x080) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(0x100) {
		t.Fatal("new line not resident")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestRefillInPlace(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x100, fill32(1), false)
	if v := c.Fill(0x100, fill32(2), false); v.Valid {
		t.Fatal("refill of resident line reported eviction")
	}
	var b [1]byte
	c.Load(0x100, b[:])
	if b[0] != 2 {
		t.Fatalf("refill did not replace data: %v", b[0])
	}
	if c.ValidLines() != 1 {
		t.Fatalf("valid lines = %d, want 1", c.ValidLines())
	}
}

// TestRefillInPlaceBehindInvalidWay: a resident line is refilled in place
// even when an invalid way precedes it in the set; taking the invalid way
// instead would leave two lines with one tag, and invalidating one of them
// would leave a stale copy behind.
func TestRefillInPlaceBehindInvalidWay(t *testing.T) {
	c := New("l1", 1024, 2) // 16 sets: lines 0x0 and 0x200 share set 0
	c.Fill(0x000, fill32(1), false)
	c.Fill(0x200, fill32(2), false)
	c.InvalidateLine(0x000) // way 0 now invalid, 0x200 resident in way 1
	c.Fill(0x200, fill32(3), false)
	if c.ValidLines() != 1 {
		t.Fatalf("valid lines = %d, want 1", c.ValidLines())
	}
	c.InvalidateLine(0x200)
	if c.Contains(0x200) {
		t.Fatal("stale copy of 0x200 survived its invalidation")
	}
}

func TestCL1INVMBDropsOnlyMPBTLines(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x100, fill32(1), true)  // MPBT (shared SVM data)
	c.Fill(0x200, fill32(2), false) // normal private data
	c.InvalidateMPBT()
	if c.Contains(0x100) {
		t.Fatal("MPBT line survived CL1INVMB")
	}
	if !c.Contains(0x200) {
		t.Fatal("non-MPBT line dropped by CL1INVMB")
	}
}

func TestInvalidateAllAndLine(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x100, fill32(1), false)
	c.Fill(0x200, fill32(2), true)
	c.InvalidateLine(0x204)
	if c.Contains(0x200) {
		t.Fatal("InvalidateLine missed")
	}
	c.InvalidateAll()
	if c.ValidLines() != 0 {
		t.Fatal("InvalidateAll left lines")
	}
}

// TestStaleness is the heart of the non-coherence model: a cached line does
// not observe later memory writes until invalidated.
func TestStaleness(t *testing.T) {
	c := New("l1", 1024, 2)
	c.Fill(0x100, fill32(1), true)
	// "Memory" changes behind the cache's back (another core wrote it).
	// The cache still returns the stale 1s.
	var b [4]byte
	c.Load(0x100, b[:])
	if b[0] != 1 {
		t.Fatal("unexpected")
	}
	// Only after invalidation (and a refill with fresh bytes) does the new
	// value appear.
	c.InvalidateMPBT()
	if c.Load(0x100, b[:]) {
		t.Fatal("stale line survived invalidate")
	}
	c.Fill(0x100, fill32(9), true)
	c.Load(0x100, b[:])
	if b[0] != 9 {
		t.Fatal("fresh fill not visible")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New("x", 100, 2) }, // not a multiple of ways*LineSize
		func() { New("x", 0, 2) },
		func() { New("x", 1024, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			bad()
		}()
	}
}

func TestCrossLineAccessPanics(t *testing.T) {
	c := New("l1", 1024, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-line access accepted")
		}
	}()
	var b [8]byte
	c.Load(0x1c, b[:]) // 0x1c+8 crosses the 0x20 boundary
}

// Property: after filling a line with known bytes, loads of any in-line
// subrange return exactly those bytes.
// TestFillLoadProperty fills random lines (evicting through the 4-way sets)
// and reads them back. After every fill and every invalidation it also
// checks the way hint: find, and so Contains, must return exactly the line
// a linear scan of the set finds, for every line address the test uses.
func TestFillLoadProperty(t *testing.T) {
	c := New("l1", 2048, 4)
	hintAgrees := func() bool {
		for sel := 0; sel < 256; sel++ {
			paddr := uint32(sel) * LineSize
			var want *line
			set := c.set(paddr)
			for i := range set {
				if set[i].valid && set[i].tag == paddr {
					want = &set[i]
				}
			}
			if c.find(paddr) != want || c.Contains(paddr) != (want != nil) {
				return false
			}
		}
		return true
	}
	f := func(lineSel uint8, off0, n0 uint8, pattern byte, mpbt bool, invalSel uint8) bool {
		base := uint32(lineSel) * LineSize
		data := make([]byte, LineSize)
		for i := range data {
			data[i] = pattern ^ byte(i)
		}
		c.Fill(base, data, mpbt)
		if !hintAgrees() {
			return false
		}
		off := int(off0) % LineSize
		n := 1 + int(n0)%(LineSize-off)
		got := make([]byte, n)
		if !c.Load(base+uint32(off), got) {
			return false
		}
		for i := range got {
			if got[i] != data[off+i] {
				return false
			}
		}
		if invalSel%8 == 0 {
			c.InvalidateMPBT()
		} else {
			c.InvalidateLine(uint32(invalSel) * LineSize)
		}
		return hintAgrees()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestWCBMergesWithinLine(t *testing.T) {
	w := NewWCB()
	for i := uint32(0); i < LineSize; i += 8 {
		if _, drained := w.Write(0x100+i, []byte{1, 2, 3, 4, 5, 6, 7, 8}); drained {
			t.Fatal("drain within one line")
		}
	}
	f, ok := w.Flush()
	if !ok {
		t.Fatal("flush of full buffer returned nothing")
	}
	if !f.Full() {
		t.Fatalf("mask = %#x, want full", f.Mask)
	}
	if f.LineAddr != 0x100 {
		t.Fatalf("line addr = %#x", f.LineAddr)
	}
	s := w.Stats()
	if s.Writes != 4 || s.Flushes != 1 || s.FullLines != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestWCBDrainsOnLineChange(t *testing.T) {
	w := NewWCB()
	w.Write(0x100, []byte{0xaa})
	drain, drained := w.Write(0x200, []byte{0xbb})
	if !drained {
		t.Fatal("no drain on line change")
	}
	if drain.LineAddr != 0x100 || drain.Mask != 1 || drain.Data[0] != 0xaa {
		t.Fatalf("drained %+v", drain)
	}
	if !w.Valid() {
		t.Fatal("new line not buffered")
	}
}

func TestWCBApplyMask(t *testing.T) {
	w := NewWCB()
	w.Write(0x104, []byte{9, 9})
	f, _ := w.Flush()
	line := fill32(0x11)
	f.Apply(line)
	if line[3] != 0x11 || line[4] != 9 || line[5] != 9 || line[6] != 0x11 {
		t.Fatalf("apply produced %v", line[:8])
	}
}

func TestWCBCoversRead(t *testing.T) {
	w := NewWCB()
	w.Write(0x110, []byte{1})
	if !w.CoversRead(0x100, 32) {
		t.Fatal("overlap not detected")
	}
	if w.CoversRead(0x200, 8) {
		t.Fatal("false overlap")
	}
	if w.Stats().ReadStalls != 1 {
		t.Fatalf("read stalls = %d", w.Stats().ReadStalls)
	}
	w.Flush()
	if w.CoversRead(0x100, 32) {
		t.Fatal("empty buffer claims overlap")
	}
}

func TestWCBEmptyFlush(t *testing.T) {
	w := NewWCB()
	if _, ok := w.Flush(); ok {
		t.Fatal("empty flush returned data")
	}
}

// Property: the WCB never loses a written byte — every store is visible in
// some subsequent drain with the right value and mask bit.
func TestWCBNoLostBytesProperty(t *testing.T) {
	f := func(writes []struct {
		Off uint8
		Val byte
	}) bool {
		w := NewWCB()
		want := map[uint32]byte{} // final value per address
		var drains []Flushed
		for _, wr := range writes {
			addr := uint32(wr.Off) // within a few lines
			if d, ok := w.Write(addr, []byte{wr.Val}); ok {
				drains = append(drains, d)
			}
			want[addr] = wr.Val
		}
		if d, ok := w.Flush(); ok {
			drains = append(drains, d)
		}
		// Replay drains in order into a flat memory image.
		mem := make([]byte, 256+LineSize)
		for _, d := range drains {
			d.Apply(mem[d.LineAddr : d.LineAddr+LineSize])
		}
		for addr, v := range want {
			if mem[addr] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
