package mesh

import (
	"testing"
	"testing/quick"
)

// gridMesh builds a w x h x c mesh with the paper's clocks — the shapes the
// scale-out topologies use (8x8x2) and the degenerate single tile (1x1x2).
func gridMesh(t *testing.T, w, h, c int) *Mesh {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Width = w
	cfg.Height = h
	cfg.CoresPerTile = c
	cfg.MemoryControllers = []Coord{{X: 0, Y: 0}, {X: w - 1, Y: h - 1}}
	if w == 1 && h == 1 {
		cfg.MemoryControllers = []Coord{{X: 0, Y: 0}}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The hop-metric and lookahead properties must hold on every grid the
// topology API can produce, not just the paper's 6x4x2.
func testGrids(t *testing.T) map[string]*Mesh {
	return map[string]*Mesh{
		"8x8x2": gridMesh(t, 8, 8, 2),
		"1x1x2": gridMesh(t, 1, 1, 2),
		"1x4x1": gridMesh(t, 1, 4, 1),
	}
}

func TestHopsMetricPropertyOnGrids(t *testing.T) {
	for name, m := range testGrids(t) {
		n := m.Cores()
		f := func(a, b, c uint16) bool {
			x, y, z := int(a)%n, int(b)%n, int(c)%n
			if m.HopsCores(x, y) != m.HopsCores(y, x) {
				return false
			}
			if m.TileOfCore(x) == m.TileOfCore(y) != (m.HopsCores(x, y) == 0) {
				return false
			}
			return m.HopsCores(x, z) <= m.HopsCores(x, y)+m.HopsCores(y, z)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// On a single-tile mesh every pair shares the tile: zero hops and a
// CoreAtDistance sweep that stops at hop 0.
func TestSingleTileMesh(t *testing.T) {
	m := gridMesh(t, 1, 1, 2)
	if m.MaxHops() != 0 {
		t.Fatalf("single-tile diameter = %d, want 0", m.MaxHops())
	}
	if m.HopsCores(0, 1) != 0 {
		t.Fatalf("same-tile hops = %d, want 0", m.HopsCores(0, 1))
	}
	if peer := m.CoreAtDistance(0, 0); peer != 1 {
		t.Fatalf("CoreAtDistance(0,0) = %d, want the tile sibling 1", peer)
	}
}

func TestCoreAtDistanceOnGrids(t *testing.T) {
	for name, m := range testGrids(t) {
		for h := 0; h <= m.MaxHops(); h++ {
			peer := m.CoreAtDistance(0, h)
			if peer < 0 {
				// A distance with no core is legal (sparse diagonals); the
				// diameter itself must always be reachable.
				if h == m.MaxHops() {
					t.Errorf("%s: no core at the diameter %d", name, h)
				}
				continue
			}
			if got := m.HopsCores(0, peer); got != h {
				t.Errorf("%s: CoreAtDistance(0,%d) = core %d at %d hops", name, h, peer, got)
			}
		}
	}
}
