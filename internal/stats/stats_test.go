package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); !almost(got, 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v", got)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty-slice stats should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {90, 9.1},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if Percentile([]float64{42}, 99) != 42 {
		t.Fatal("single-element percentile")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Abs(math.Mod(p1, 100))
		p2 = math.Abs(math.Mod(p2, 100))
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		return lo <= hi && lo >= slices.Min(xs) && hi <= slices.Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileMatchesSortReference cross-checks the quickselect-based
// Percentile against the obvious sort-then-index implementation on random
// inputs with duplicates and adversarial shapes.
func TestPercentileMatchesSortReference(t *testing.T) {
	sortRef := func(xs []float64, p float64) float64 {
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		return PercentileSorted(cp, p)
	}
	rng := rand.New(rand.NewSource(11))
	shapes := []func(n int) []float64{
		func(n int) []float64 { // uniform
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64() * 100
			}
			return xs
		},
		func(n int) []float64 { // heavy duplicates
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(5))
			}
			return xs
		},
		func(n int) []float64 { // sorted ascending (median-of-3 stress)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		},
		func(n int) []float64 { // sorted descending
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
		func(n int) []float64 { // all equal
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 7.5
			}
			return xs
		},
	}
	ps := []float64{0, 1, 25, 50, 75, 90, 99, 99.9, 100}
	for si, shape := range shapes {
		for _, n := range []int{1, 2, 3, 10, 101, 1000} {
			xs := shape(n)
			for _, p := range ps {
				want := sortRef(xs, p)
				got := Percentile(xs, p)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("shape %d n=%d p=%v: quickselect %v vs sort %v", si, n, p, got, want)
				}
			}
		}
	}
}

// TestPercentileNaNHandling pins that quickselect orders NaNs the way
// sort.Float64s does (NaNs first), so results with NaN samples match the
// historical sort-based behaviour exactly.
func TestPercentileNaNHandling(t *testing.T) {
	xs := []float64{3, math.NaN(), 1, math.NaN(), 2}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	for _, p := range []float64{0, 10, 50, 90, 100} {
		want := PercentileSorted(cp, p)
		got := Percentile(xs, p)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("p=%v: quickselect %v vs sort %v", p, got, want)
		}
	}
}

// TestPercentileInPlaceReordersOnly asserts PercentileInPlace permutes its
// input without changing the multiset of values.
func TestPercentileInPlaceReordersOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	before := append([]float64(nil), xs...)
	sort.Float64s(before)
	PercentileInPlace(xs, 95)
	after := append([]float64(nil), xs...)
	sort.Float64s(after)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("value multiset changed at %d: %v vs %v", i, before[i], after[i])
		}
	}
}

// Property: quickselect equals the sort reference on arbitrary finite input.
func TestPercentileSelectProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsInf(x, 0) {
				xs = append(xs, x) // NaNs intentionally kept
			}
		}
		p = math.Abs(math.Mod(p, 100))
		cp := append([]float64(nil), xs...)
		sort.Float64s(cp)
		want := PercentileSorted(cp, p)
		got := Percentile(xs, p)
		return got == want || (math.IsNaN(got) && math.IsNaN(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWelchTTestKnownValue(t *testing.T) {
	// Hand-computed example:
	// a = {1..5}:  mean 3, var 2.5, n 5  → var/n = 0.5
	// b = {2,4,..10}: mean 6, var 10, n 5 → var/n = 2.0
	// t  = (3-6)/sqrt(2.5)            = -1.897366596...
	// df = 2.5² / (0.5²/4 + 2²/4)     = 6.25/1.0625 = 5.88235...
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	r := WelchTTest(a, b)
	if !almost(r.T, -3.0/math.Sqrt(2.5), 1e-12) {
		t.Fatalf("T = %v, want %v", r.T, -3.0/math.Sqrt(2.5))
	}
	if !almost(r.DF, 6.25/1.0625, 1e-12) {
		t.Fatalf("DF = %v, want %v", r.DF, 6.25/1.0625)
	}
	// t=1.897 at df≈5.88 is between the 0.10 and 0.05 two-sided critical
	// values (1.943 and 2.447 at df=6), so p must land in (0.05, 0.15).
	if r.P <= 0.05 || r.P >= 0.15 {
		t.Fatalf("P = %v, want in (0.05, 0.15)", r.P)
	}
}

func TestStudentTTailCriticalValues(t *testing.T) {
	// Standard two-sided 5% critical values: P(T > t_crit) must be 0.025.
	cases := []struct{ tcrit, df float64 }{
		{12.7062, 1}, {2.7764, 4}, {2.2281, 10}, {2.0423, 30}, {1.9600, 1e6},
	}
	for _, c := range cases {
		if got := studentTTail(c.tcrit, c.df); !almost(got, 0.025, 3e-4) {
			t.Errorf("studentTTail(%v, df=%v) = %v, want 0.025", c.tcrit, c.df, got)
		}
	}
	if studentTTail(math.Inf(1), 5) != 0 {
		t.Error("tail at +inf should be 0")
	}
	if got := studentTTail(0, 7); !almost(got, 0.5, 1e-12) {
		t.Errorf("tail at 0 = %v, want 0.5", got)
	}
}

func TestWelchTTestIdenticalSamples(t *testing.T) {
	a := []float64{5, 5, 5, 5}
	r := WelchTTest(a, a)
	if r.P != 1 {
		t.Fatalf("identical zero-variance samples: P = %v, want 1", r.P)
	}
	if !MeansEqual(a, a, 0.05) {
		t.Fatal("MeansEqual(a,a) = false")
	}
}

func TestWelchTTestZeroVarianceDifferent(t *testing.T) {
	a := []float64{5, 5, 5}
	b := []float64{6, 6, 6}
	r := WelchTTest(a, b)
	if r.P != 0 {
		t.Fatalf("distinct constants: P = %v, want 0", r.P)
	}
}

func TestWelchTTestSmallSamples(t *testing.T) {
	if r := WelchTTest([]float64{1}, []float64{2, 3}); r.P != 1 {
		t.Fatalf("n<2 should return P=1, got %v", r.P)
	}
}

func TestMeanGreater(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big, small := make([]float64, 50), make([]float64, 50)
	for i := range big {
		big[i] = 10 + rng.NormFloat64()
		small[i] = 5 + rng.NormFloat64()
	}
	if !MeanGreater(big, small, 0.05) {
		t.Fatal("MeanGreater(10s,5s) = false")
	}
	if MeanGreater(small, big, 0.05) {
		t.Fatal("MeanGreater(5s,10s) = true")
	}
	if MeanGreater(small, small, 0.05) {
		t.Fatal("MeanGreater(x,x) = true")
	}
}

// Property: the t-test is symmetric — swapping samples flips T and keeps P.
func TestWelchSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 10+rng.Intn(20))
		b := make([]float64, 10+rng.Intn(20))
		for i := range a {
			a[i] = rng.NormFloat64() * 3
		}
		for i := range b {
			b[i] = 1 + rng.NormFloat64()
		}
		r1, r2 := WelchTTest(a, b), WelchTTest(b, a)
		return almost(r1.T, -r2.T, 1e-9) && almost(r1.P, r2.P, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !almost(got, x, 1e-10) {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	for _, x := range []float64{0.2, 0.5, 0.8} {
		want := 3*x*x - 2*x*x*x
		if got := RegIncBeta(2, 2, x); !almost(got, want, 1e-10) {
			t.Fatalf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Fatal("boundary values wrong")
	}
}

func TestLogNormalFromMeanCV(t *testing.T) {
	ln := LogNormalFromMeanCV(10, 0.5)
	if !almost(ln.Mean(), 10, 1e-9) {
		t.Fatalf("analytic mean = %v, want 10", ln.Mean())
	}
	rng := rand.New(rand.NewSource(42))
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := ln.Sample(rng)
		if v <= 0 {
			t.Fatal("log-normal sample <= 0")
		}
		sum += v
		sumsq += v * v
	}
	m := sum / float64(n)
	sd := math.Sqrt(sumsq/float64(n) - m*m)
	if !almost(m, 10, 0.15) {
		t.Fatalf("empirical mean = %v", m)
	}
	if !almost(sd/m, 0.5, 0.05) {
		t.Fatalf("empirical cv = %v", sd/m)
	}
}

// TestLogNormalQuantileMatchesEmpirical: sampled percentiles match the
// analytic log-normal quantile exp(mu + sigma·z_p).
func TestLogNormalQuantileMatchesEmpirical(t *testing.T) {
	ln := LogNormalFromMeanCV(100, 1.0)
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = ln.Sample(rng)
	}
	sort.Float64s(xs)
	// Standard normal quantiles z_p for p = 50, 90, 99.
	for _, c := range []struct{ p, z float64 }{{50, 0}, {90, 1.2815516}, {99, 2.3263479}} {
		p := c.p
		emp := PercentileSorted(xs, p)
		ana := math.Exp(ln.Mu + ln.Sigma*c.z)
		if math.Abs(emp-ana)/ana > 0.05 {
			t.Fatalf("p%v: empirical %v vs analytic %v", p, emp, ana)
		}
	}
}

func TestExponential(t *testing.T) {
	e := Exponential{Rate: 4}
	if e.Mean() != 0.25 {
		t.Fatalf("Mean = %v", e.Mean())
	}
	rng := rand.New(rand.NewSource(3))
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += e.Sample(rng)
	}
	if !almost(sum/float64(n), 0.25, 0.01) {
		t.Fatalf("empirical mean = %v", sum/float64(n))
	}
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 7}
	if d.Sample(nil) != 7 || d.Mean() != 7 {
		t.Fatal("Deterministic broken")
	}
}

// TestGridPercentilesMatchesPercentile pins the cached-table read path: a
// grid built by one sort must be bit-identical to per-percentile quickselect
// calls, including empty input and unsorted/duplicated samples.
func TestGridPercentilesMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ps := []float64{0, 50, 75, 90, 95, 99, 99.5, 99.8, 99.9, 100}
	out := make([]float64, len(ps))
	for _, n := range []int{0, 1, 2, 7, 100, 2531} {
		xs := make([]float64, n)
		for i := range xs {
			if i%5 == 0 {
				xs[i] = float64(rng.Intn(4)) // duplicates
			} else {
				xs[i] = rng.ExpFloat64() * 50
			}
		}
		GridPercentiles(xs, ps, out)
		for i, p := range ps {
			if want := Percentile(xs, p); out[i] != want {
				t.Fatalf("n=%d p=%v: grid %v vs direct %v", n, p, out[i], want)
			}
		}
	}
}

// TestGridPercentilesDoesNotMutate pins that the input slice is untouched.
func TestGridPercentilesDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	orig := append([]float64(nil), xs...)
	out := make([]float64, 3)
	GridPercentiles(xs, []float64{10, 50, 90}, out)
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("input mutated at %d: %v vs %v", i, xs, orig)
		}
	}
}
