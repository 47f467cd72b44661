package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestIndexedPlaceMatchesReference is the equivalence property pin for the
// free-capacity index: randomized place/release/down/recover/CPU-factor
// sequences must make the indexed cluster pick a byte-identical node
// sequence — lowest-index tie-break included — to the retained linear-scan
// reference, for both strategies, across ≥40 seeds. Aggregates and
// ErrNoCapacity diagnostics are compared on every step too. Every drawn
// size and capacity is a multiple of 0.5, so all float sums are exact and
// equality checks are legitimate.
func TestIndexedPlaceMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 48; seed++ {
		for _, s := range []Strategy{BestFit, WorstFit} {
			seed, s := seed, s
			t.Run(fmt.Sprintf("seed=%d/strategy=%d", seed, s), func(t *testing.T) {
				runEquivSequence(t, seed, s)
			})
		}
	}
}

func runEquivSequence(t *testing.T, seed int64, s Strategy) {
	rng := rand.New(rand.NewSource(seed))
	nNodes := 1 + rng.Intn(64)
	caps := make([]float64, nNodes)
	for i := range caps {
		caps[i] = float64(4 + rng.Intn(61)) // 4..64 CPUs
	}
	idx := New(s, caps...)
	ref := NewReference(s, caps...)

	type pair struct{ ip, rp Placement }
	var live []pair
	for op := 0; op < 300; op++ {
		switch u := rng.Float64(); {
		case u < 0.55 || len(live) == 0:
			cpus := 0.5 * float64(1+rng.Intn(16)) // 0.5 .. 8.0
			ip, ierr := idx.Place(cpus)
			rp, rerr := ref.Place(cpus)
			switch {
			case (ierr == nil) != (rerr == nil):
				t.Fatalf("op %d: Place(%v) errs diverge: indexed %v, reference %v", op, cpus, ierr, rerr)
			case ierr != nil:
				if ierr.Error() != rerr.Error() {
					t.Fatalf("op %d: Place(%v) error diverges:\n  indexed:   %v\n  reference: %v", op, cpus, ierr, rerr)
				}
			default:
				if ip.Node.Name != rp.Node.Name {
					t.Fatalf("op %d: Place(%v) picked %s, reference picked %s", op, cpus, ip.Node.Name, rp.Node.Name)
				}
				live = append(live, pair{ip, rp})
			}
		case u < 0.80:
			k := rng.Intn(len(live))
			idx.Release(live[k].ip)
			ref.Release(live[k].rp)
			live = append(live[:k], live[k+1:]...)
		case u < 0.92:
			i := rng.Intn(nNodes)
			down := rng.Float64() < 0.5
			idx.nodes[i].SetDown(down)
			ref.nodes[i].SetDown(down)
		default:
			// CPU interference must not perturb placement or the index.
			i := rng.Intn(nNodes)
			f := 0.25 + 1.5*rng.Float64()
			idx.nodes[i].SetCPUFactor(f)
			ref.nodes[i].SetCPUFactor(f)
		}
		if got, want := idx.TotalUsed(), ref.TotalUsed(); got != want {
			t.Fatalf("op %d: TotalUsed %v != reference %v", op, got, want)
		}
		if got, want := idx.AvailableCapacity(), ref.AvailableCapacity(); got != want {
			t.Fatalf("op %d: AvailableCapacity %v != reference %v", op, got, want)
		}
		if got, want := idx.TotalCapacity(), ref.TotalCapacity(); got != want {
			t.Fatalf("op %d: TotalCapacity %v != reference %v", op, got, want)
		}
		for i, n := range idx.nodes {
			if rn := ref.nodes[i]; n.used != rn.used || n.down != rn.down {
				t.Fatalf("op %d: node %d state diverged: used %v/%v down %v/%v",
					op, i, n.used, rn.used, n.down, rn.down)
			}
		}
	}
}

// TestFreeIndexOrdering drives the treap directly through random re-keys and
// erases and checks the in-order traversal stays sorted by (free, index)
// with exactly the linked slots present — in both tie orders (ascending
// index for BestFit, descending for WorstFit).
func TestFreeIndexOrdering(t *testing.T) {
	for _, tieDesc := range []bool{false, true} {
		t.Run(fmt.Sprintf("tieDesc=%v", tieDesc), func(t *testing.T) {
			runFreeIndexOrdering(t, tieDesc)
		})
	}
}

func runFreeIndexOrdering(t *testing.T, tieDesc bool) {
	rng := rand.New(rand.NewSource(11))
	const n = 40
	var idx freeIndex
	idx.init(n, tieDesc)
	linked := make(map[int32]bool, n)
	free := make([]float64, n)
	for i := int32(0); i < n; i++ {
		free[i] = float64(rng.Intn(32))
		idx.insert(i, free[i])
		linked[i] = true
	}
	for op := 0; op < 2000; op++ {
		i := int32(rng.Intn(n))
		switch {
		case !linked[i]:
			free[i] = float64(rng.Intn(32))
			idx.insert(i, free[i])
			linked[i] = true
		case rng.Float64() < 0.3:
			idx.erase(i)
			linked[i] = false
		default:
			free[i] = float64(rng.Intn(32))
			idx.update(i, free[i])
		}

		var walk func(int32, []int32) []int32
		walk = func(cur int32, out []int32) []int32 {
			if cur == -1 {
				return out
			}
			out = walk(idx.s[cur].left, out)
			out = append(out, cur)
			return walk(idx.s[cur].right, out)
		}
		order := walk(idx.root, nil)
		want := 0
		for _, ok := range linked {
			if ok {
				want++
			}
		}
		if len(order) != want {
			t.Fatalf("op %d: traversal has %d slots, want %d", op, len(order), want)
		}
		for k := 1; k < len(order); k++ {
			a, b := order[k-1], order[k]
			tieBad := a > b
			if tieDesc {
				tieBad = a < b
			}
			if idx.s[a].free > idx.s[b].free || (idx.s[a].free == idx.s[b].free && tieBad) {
				t.Fatalf("op %d: traversal out of order at %d: (%v,%d) before (%v,%d)",
					op, k, idx.s[a].free, a, idx.s[b].free, b)
			}
		}
	}
}
