package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with distinct seeds collided %d times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := parent.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Error("differently labelled children produced equal first draw")
	}
	want := New(7).Split(1).Uint64()
	if got := c1again.Uint64(); got != want {
		t.Errorf("Split is not a pure function of (parent, label): got %d want %d", got, want)
	}
}

func TestSplitString(t *testing.T) {
	p := New(3)
	if p.SplitString("a").Uint64() == p.SplitString("b").Uint64() {
		t.Error("string-labelled children collided")
	}
	if p.SplitString("x").Uint64() != p.SplitString("x").Uint64() {
		t.Error("SplitString is not deterministic")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(9)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d has count %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(13)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestUniformIn(t *testing.T) {
	s := New(17)
	for i := 0; i < 10000; i++ {
		f := s.UniformIn(0.8, 0.9)
		if f < 0.8 || f >= 0.9 {
			t.Fatalf("UniformIn(0.8, 0.9) = %v out of range", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, size uint16) bool {
		n := int(size%2048) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// The first element of a uniform permutation of [0,n) is uniform.
	const n, draws = 8, 80000
	s := New(23)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("first element %d occurred %d times, want about %.0f", i, c, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(29)
	const p, draws = 0.25, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(s.Geometric(p))
	}
	mean := sum / draws
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("Geometric(%v) mean = %v, want about %v", p, mean, want)
	}
}

func TestGeometricEdgeCases(t *testing.T) {
	s := New(31)
	if g := s.Geometric(1.0); g != 0 {
		t.Errorf("Geometric(1) = %d, want 0", g)
	}
	if g := s.Geometric(0); g != math.MaxInt32 {
		t.Errorf("Geometric(0) = %d, want MaxInt32", g)
	}
	if g := s.Geometric(-0.5); g != math.MaxInt32 {
		t.Errorf("Geometric(-0.5) = %d, want MaxInt32", g)
	}
}

func TestExpMean(t *testing.T) {
	s := New(37)
	const draws = 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += s.Exp()
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Errorf("Exp mean = %v, want about 1", mean)
	}
}

func TestHashStability(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Error("Hash is not deterministic")
	}
	if Hash(1, 2, 3) == Hash(3, 2, 1) {
		t.Error("Hash ignores argument order")
	}
	if Hash(0) == Hash(0, 0) {
		t.Error("Hash ignores argument count")
	}
}

func TestThresholdOracleRangeAndDeterminism(t *testing.T) {
	// The second interval is empty-width: the FixedThreshold ablation,
	// where every draw must be exactly lo.
	for _, iv := range []struct{ lo, hi float64 }{{0.6, 0.8}, {0.7, 0.7}} {
		o := NewThresholdOracle(99, iv.lo, iv.hi)
		for v := int32(0); v < 100; v++ {
			for iter := 0; iter < 50; iter++ {
				th := o.At(v, iter)
				if th < o.Lo() {
					t.Fatalf("[%v, %v): T_{%d,%d} = %v below Lo", iv.lo, iv.hi, v, iter, th)
				}
				if th > iv.hi || (th == iv.hi && iv.hi > iv.lo) {
					t.Fatalf("[%v, %v): T_{%d,%d} = %v above the interval", iv.lo, iv.hi, v, iter, th)
				}
				if th != o.At(v, iter) {
					t.Fatalf("T_{%d,%d} is not stable", v, iter)
				}
			}
		}
	}
}

func TestThresholdOracleIndependence(t *testing.T) {
	o := NewThresholdOracle(99, 0, 1)
	if o.At(1, 1) == o.At(1, 2) || o.At(1, 1) == o.At(2, 1) {
		t.Error("thresholds collide across vertices/iterations")
	}
	o2 := NewThresholdOracle(100, 0, 1)
	if o.At(5, 5) == o2.At(5, 5) {
		t.Error("thresholds collide across seeds")
	}
}

func TestThresholdOracleMean(t *testing.T) {
	o := NewThresholdOracle(7, 0.6, 0.8)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		sum += o.At(int32(i%317), i/317)
	}
	if mean := sum / draws; math.Abs(mean-0.7) > 0.002 {
		t.Errorf("threshold mean = %v, want about 0.7", mean)
	}
}

func TestThresholdOraclePanicsOnEmptyInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewThresholdOracle(hi < lo) did not panic")
		}
	}()
	NewThresholdOracle(1, 0.9, 0.8)
}

func TestThresholdOracleAccessors(t *testing.T) {
	o := NewThresholdOracle(1, 0.25, 0.75)
	if o.Lo() != 0.25 || o.Hi() != 0.75 {
		t.Errorf("Lo/Hi = %v/%v, want 0.25/0.75", o.Lo(), o.Hi())
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkPerm1e4(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Perm(10000)
	}
}

func BenchmarkThresholdOracle(b *testing.B) {
	o := NewThresholdOracle(1, 0.6, 0.8)
	for i := 0; i < b.N; i++ {
		_ = o.At(int32(i&1023), i>>10)
	}
}
