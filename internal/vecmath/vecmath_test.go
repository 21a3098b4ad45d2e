package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotAndSum(t *testing.T) {
	a := Point{1, 2, 3}
	b := Point{4, 5, 6}
	if got := a.Dot(b); got != 32 {
		t.Fatalf("dot = %g, want 32", got)
	}
	if got := a.Sum(); got != 6 {
		t.Fatalf("sum = %g, want 6", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched dims")
		}
	}()
	Point{1}.Dot(Point{1, 2})
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Point
		want Dominance
	}{
		{Point{1, 1}, Point{0, 0}, Dominates},
		{Point{0, 0}, Point{1, 1}, DominatedBy},
		{Point{1, 0}, Point{0, 1}, Incomparable},
		{Point{1, 1}, Point{1, 1}, Same},
		{Point{1, 1}, Point{1, 0}, Dominates},
		{Point{0.5, 0.5, 0.5}, Point{0.5, 0.5, 0.4}, Dominates},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{math.Abs(ax), math.Abs(ay)}
		b := Point{math.Abs(bx), math.Abs(by)}
		ab, ba := Compare(a, b), Compare(b, a)
		switch ab {
		case Dominates:
			return ba == DominatedBy
		case DominatedBy:
			return ba == Dominates
		default:
			return ab == ba
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: dominance implies a strictly higher score for every positive
// query vector (the basis of the paper's dominator/dominee pruning).
func TestDominanceImpliesScoreOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		d := 2 + rng.Intn(4)
		a := make(Point, d)
		b := make(Point, d)
		for i := 0; i < d; i++ {
			a[i] = rng.Float64()
			b[i] = a[i] - rng.Float64()*0.5 // b <= a coordinate-wise... not always
		}
		if Compare(a, b) != Dominates {
			continue
		}
		q := make(Point, d)
		var sum float64
		for i := range q {
			q[i] = rng.Float64() + 1e-9
			sum += q[i]
		}
		for i := range q {
			q[i] /= sum
		}
		if a.Dot(q) <= b.Dot(q) {
			t.Fatalf("a=%v dominates b=%v but S(a)=%g <= S(b)=%g under q=%v",
				a, b, a.Dot(q), b.Dot(q), q)
		}
	}
}

func TestLiftReduceRoundTrip(t *testing.T) {
	f := func(x, y, z float64) bool {
		// Build a permissible q from positive parts, folded into a sane
		// range so extreme quick-check inputs cannot overflow the sum.
		fold := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			return math.Mod(math.Abs(v), 100) + 0.1
		}
		vals := []float64{fold(x), fold(y), fold(z)}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		q := Point{vals[0] / sum, vals[1] / sum, vals[2] / sum}
		lifted := LiftQuery(ReduceQuery(q))
		for i := range q {
			if math.Abs(lifted[i]-q[i]) > 1e-12 {
				return false
			}
		}
		return IsPermissible(lifted, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsPermissible(t *testing.T) {
	if !IsPermissible(Point{0.3, 0.7}, 1e-9) {
		t.Error("0.3/0.7 should be permissible")
	}
	if IsPermissible(Point{0.5, 0.6}, 1e-9) {
		t.Error("sum > 1 should not be permissible")
	}
	if IsPermissible(Point{0, 1}, 1e-9) {
		t.Error("zero weight should not be permissible")
	}
	if IsPermissible(Point{-0.5, 1.5}, 1e-9) {
		t.Error("negative weight should not be permissible")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]Point{{1, 5}, {3, 2}, {2, 8}})
	if !lo.Equal(Point{1, 2}) || !hi.Equal(Point{3, 8}) {
		t.Fatalf("MinMax = %v %v", lo, hi)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Point{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}
