package graph

import (
	"testing"
	"testing/quick"
)

func TestCSRDegreesMatch(t *testing.T) {
	g := randomGraph(20, 50, 9)
	c := ToCSR(g)
	for v := 0; v < 20; v++ {
		if int(c.Degree(int32(v))) != g.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	if c.TotalVWgt() != 20 {
		t.Fatalf("TotalVWgt = %d", c.TotalVWgt())
	}
}

func TestCSRNeighborsMatchAdjacency(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		m := n
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := randomGraph(n, m, seed)
		c := ToCSR(g)
		for v := 0; v < n; v++ {
			seen := map[int32]Weight{}
			c.Neighbors(int32(v), func(to int32, w Weight) { seen[to] = w })
			if len(seen) != g.Degree(v) {
				return false
			}
			for _, a := range g.Neighbors(v) {
				if seen[a.To] != a.Weight {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
