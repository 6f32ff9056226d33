package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"metalsvm/internal/pgtable"
)

// TestTLBMatchesTableWalk is the oracle for the software TLB: a seeded
// random sequence of Map, Unmap and protection changes on the core's page
// table, after each of which every page the test uses is translated for
// read and for write through the TLB-backed translate. The outcome —
// fault or no fault, and on no fault the entry — must equal a direct walk
// of a shadow copy of the table. The pages alias in groups of three on the
// direct-mapped TLB, so insertions also evict each other.
func TestTLBMatchesTableWalk(t *testing.T) {
	type faulted struct{}
	var pages []uint32
	for slot := uint32(0); slot < 8; slot++ {
		for alias := uint32(0); alias < 3; alias++ {
			pages = append(pages, (slot*5+alias*tlbSize)*pgtable.PageSize)
		}
	}
	var failure string
	var hits, misses uint64
	testCore(t, DefaultConfig(), nil, func(c *Core, _ *fakeBus) {
		c.SetFaultHandler(func(*Core, uint32, bool, pgtable.Entry) { panic(faulted{}) })
		translate := func(vaddr uint32, write bool) (e pgtable.Entry, fault bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(faulted); !ok {
						panic(r)
					}
					fault = true
				}
			}()
			return c.translate(vaddr, write), false
		}
		shadow := map[uint32]pgtable.Entry{} // vpn -> entry; absent = unmapped
		flagBits := []pgtable.Flags{pgtable.Present, pgtable.Writable, pgtable.WriteThrough, pgtable.MPBT}
		randFlags := func(rng *rand.Rand) pgtable.Flags {
			var f pgtable.Flags
			for _, b := range flagBits {
				if rng.Intn(2) == 0 {
					f |= b
				}
			}
			return f
		}
		rng := rand.New(rand.NewSource(1))
		for step := 0; step < 3000 && failure == ""; step++ {
			v := pages[rng.Intn(len(pages))] + uint32(rng.Intn(pgtable.PageSize))
			vpn := pgtable.VPN(v)
			_, mapped := shadow[vpn]
			var op string
			switch k := rng.Intn(6); {
			case k == 0 || !mapped:
				op = "map"
				e := pgtable.Entry{PFN: 1 + uint32(rng.Intn(1000)), Flags: randFlags(rng)}
				c.Table.Map(v, e.PFN, e.Flags)
				shadow[vpn] = e
			case k == 1:
				op = "unmap"
				c.Table.Unmap(v)
				delete(shadow, vpn)
			case k == 2:
				op = "set-flags"
				bits := randFlags(rng)
				c.Table.SetFlags(v, bits)
				e := shadow[vpn]
				e.Flags |= bits
				shadow[vpn] = e
			case k == 3:
				op = "clear-flags"
				bits := randFlags(rng)
				c.Table.ClearFlags(v, bits)
				e := shadow[vpn]
				e.Flags &^= bits
				shadow[vpn] = e
			default:
				op = "none" // let repeated translations hit the TLB
			}
			for _, p := range pages {
				want, ok := shadow[pgtable.VPN(p)]
				for _, write := range []bool{false, true} {
					wantFault := !ok || !want.Flags.Has(pgtable.Present) ||
						(write && !want.Flags.Has(pgtable.Writable))
					got, fault := translate(p, write)
					if fault != wantFault || (!fault && got != want) {
						failure = fmt.Sprintf("step %d after %s of %#x: translate(%#x, write=%v) = %v fault=%v, table walk says %v fault=%v",
							step, op, v, p, write, got, fault, want, wantFault)
						return
					}
				}
			}
		}
		hits, misses = c.Stats().TLBHits, c.Stats().TLBMisses
	})
	if failure != "" {
		t.Fatal(failure)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("TLB hits=%d misses=%d: the oracle did not exercise both paths", hits, misses)
	}
}
