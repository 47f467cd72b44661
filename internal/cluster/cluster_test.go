package cluster

import (
	"errors"
	"testing"
	"testing/quick"

	"math/rand"
)

func TestPlaceAndRelease(t *testing.T) {
	c := New(BestFit, 4, 8)
	p1, err := c.Place(4)
	if err != nil {
		t.Fatal(err)
	}
	// Best fit: the 4-CPU node is the tightest fit.
	if p1.Node.Capacity != 4 {
		t.Fatalf("best-fit picked node with capacity %v", p1.Node.Capacity)
	}
	if c.TotalUsed() != 4 {
		t.Fatalf("used = %v", c.TotalUsed())
	}
	c.Release(p1)
	if c.TotalUsed() != 0 {
		t.Fatalf("used after release = %v", c.TotalUsed())
	}
}

func TestWorstFitSpreads(t *testing.T) {
	c := New(WorstFit, 8, 16)
	p, _ := c.Place(2)
	if p.Node.Capacity != 16 {
		t.Fatalf("worst-fit picked capacity %v, want 16", p.Node.Capacity)
	}
}

func TestNoCapacity(t *testing.T) {
	c := New(BestFit, 4)
	if _, err := c.Place(2); err != nil {
		t.Fatal(err)
	}
	_, err := c.Place(3)
	var nc ErrNoCapacity
	if !errors.As(err, &nc) || nc.CPUs != 3 {
		t.Fatalf("err = %v", err)
	}
}

func TestNoCapacityMessage(t *testing.T) {
	c := New(BestFit, 4, 8)
	if _, err := c.Place(3); err != nil { // node-0 now has 1 free
		t.Fatal(err)
	}
	if _, err := c.Place(6); err != nil { // node-1 now has 2 free
		t.Fatal(err)
	}
	_, err := c.Place(5)
	want := "cluster: no node with 5.0 free CPUs (largest free fragment 2.0, 3.0 total free)"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	c.NodeByName("node-1").SetDown(true)
	_, err = c.Place(5)
	want = "cluster: no node with 5.0 free CPUs (largest free fragment 1.0, 1.0 total free); 1 node(s) down"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func TestPlaceTieBreaksOnLowestIndex(t *testing.T) {
	// Equal free capacity everywhere: both strategies must deterministically
	// pick the lowest-index node.
	for _, s := range []Strategy{BestFit, WorstFit} {
		c := New(s, 8, 8, 8)
		p, err := c.Place(2)
		if err != nil {
			t.Fatal(err)
		}
		if p.Node.Name != "node-0" {
			t.Fatalf("strategy %v: tie broke to %s, want node-0", s, p.Node.Name)
		}
	}
}

func TestPlaceSkipsDownNodes(t *testing.T) {
	c := New(WorstFit, 8, 16)
	c.NodeByName("node-1").SetDown(true)
	p, err := c.Place(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Node.Name != "node-0" {
		t.Fatalf("placed on %s, want node-0 (node-1 is down)", p.Node.Name)
	}
	if got := c.AvailableCapacity(); got != 8 {
		t.Fatalf("AvailableCapacity = %v, want 8", got)
	}
	c.NodeByName("node-1").SetDown(false)
	p2, err := c.Place(2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Node.Name != "node-1" {
		t.Fatalf("after recovery placed on %s, want node-1", p2.Node.Name)
	}
}

func TestPlaceDoesNotAllocate(t *testing.T) {
	c := New(BestFit, 16, 24, 32)
	allocs := testing.AllocsPerRun(100, func() {
		p, err := c.Place(2)
		if err != nil {
			t.Fatal(err)
		}
		c.Release(p)
	})
	if allocs != 0 {
		t.Fatalf("Place+Release allocates %.1f objects per call, want 0", allocs)
	}
}

func TestPaperTestbed(t *testing.T) {
	c := PaperTestbed()
	if len(c.Nodes()) != 8 {
		t.Fatalf("nodes = %d", len(c.Nodes()))
	}
	if c.TotalCapacity() != 40+48+56+64+64+72+80+88 {
		t.Fatalf("capacity = %v", c.TotalCapacity())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	c := New(BestFit, 4)
	p, _ := c.Place(4)
	c.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	c.Release(p)
}

// Property: any sequence of placements and releases conserves capacity and
// never over-commits a node.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Strategy(rng.Intn(2)), 16, 24, 32)
		var live []Placement
		total := 0.0
		for i := 0; i < 200; i++ {
			if rng.Float64() < 0.6 || len(live) == 0 {
				cpus := float64(1 + rng.Intn(8))
				p, err := c.Place(cpus)
				if err == nil {
					live = append(live, p)
					total += cpus
				}
			} else {
				k := rng.Intn(len(live))
				c.Release(live[k])
				total -= live[k].CPUs
				live = append(live[:k], live[k+1:]...)
			}
			if c.TotalUsed() != total {
				return false
			}
			for _, n := range c.Nodes() {
				if n.Used() > n.Capacity+1e-9 || n.Used() < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
