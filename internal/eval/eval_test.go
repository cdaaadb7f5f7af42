package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"calibre/internal/tensor"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{0.2, 0.4, 0.6, 0.8})
	if math.Abs(s.Mean-0.5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if math.Abs(s.Variance-0.05) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance)
	}
	if s.Min != 0.2 || s.Max != 0.8 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Median-0.5) > 1e-12 {
		t.Fatalf("Median = %v", s.Median)
	}
	if s.N != 4 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Bottom10 != 0.2 {
		t.Fatalf("Bottom10 = %v", s.Bottom10)
	}
	if s.String() == "" {
		t.Fatal("String should render")
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{0.7})
	if s.Mean != 0.7 || s.Variance != 0 || s.Median != 0.7 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeMedianOdd(t *testing.T) {
	s := Summarize([]float64{0.9, 0.1, 0.5})
	if s.Median != 0.5 {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestRankings(t *testing.T) {
	results := []MethodResult{
		{Method: "a", Summary: Summary{Mean: 0.5, Variance: 0.02}},
		{Method: "b", Summary: Summary{Mean: 0.7, Variance: 0.05}},
		{Method: "c", Summary: Summary{Mean: 0.6, Variance: 0.01}},
	}
	byMean := RankByMean(results)
	if byMean[0].Method != "b" || byMean[2].Method != "a" {
		t.Fatalf("RankByMean = %v", byMean)
	}
	// Original slice unchanged.
	if results[0].Method != "a" {
		t.Fatal("ranking must not mutate input")
	}
}

func TestClusterPurity(t *testing.T) {
	// Perfect clustering.
	p, err := ClusterPurity([]int{0, 0, 1, 1}, []int{5, 5, 7, 7})
	if err != nil || p != 1 {
		t.Fatalf("purity = %v, %v", p, err)
	}
	// Half-mixed.
	p, err = ClusterPurity([]int{0, 0, 0, 0}, []int{1, 1, 2, 2})
	if err != nil || p != 0.5 {
		t.Fatalf("purity = %v, %v", p, err)
	}
	if _, err := ClusterPurity([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	p, err = ClusterPurity(nil, nil)
	if err != nil || p != 0 {
		t.Fatalf("empty purity = %v, %v", p, err)
	}
}

func TestIntraInterRatio(t *testing.T) {
	// Two tight, well-separated classes → ratio << 1.
	rng := rand.New(rand.NewSource(1))
	tight := tensor.New(20, 2)
	labels := make([]int, 20)
	for i := 0; i < 20; i++ {
		c := i % 2
		labels[i] = c
		tight.SetRow(i, []float64{float64(c)*20 + rng.NormFloat64()*0.1, rng.NormFloat64() * 0.1})
	}
	if r := IntraInterRatio(tight, labels); r >= 0.5 {
		t.Fatalf("separated ratio = %v, want small", r)
	}
	// Fully mixed labels → ratio ≈ 1.
	mixedLabels := make([]int, 20)
	for i := range mixedLabels {
		mixedLabels[i] = rng.Intn(2)
	}
	mixed := tensor.RandN(rng, 1, 20, 2)
	if r := IntraInterRatio(mixed, mixedLabels); r < 0.5 || r > 2 {
		t.Fatalf("mixed ratio = %v, want ≈1", r)
	}
	if IntraInterRatio(tensor.New(1, 2), []int{0}) != 0 {
		t.Fatal("degenerate input should return 0")
	}
}

func TestImprovementAndVarianceReduction(t *testing.T) {
	a := Summary{Mean: 0.75, Variance: 0.01}
	b := Summary{Mean: 0.70, Variance: 0.02}
	if got := Improvement(a, b); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Improvement = %v", got)
	}
	if got := VarianceReduction(a, b); math.Abs(got-50) > 1e-9 {
		t.Fatalf("VarianceReduction = %v", got)
	}
	if VarianceReduction(a, Summary{}) != 0 {
		t.Fatal("zero-variance base should return 0")
	}
}

// Property: variance is non-negative and mean lies within [min, max].
func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		accs := make([]float64, n)
		for i := range accs {
			accs[i] = rng.Float64()
		}
		s := Summarize(accs)
		return s.Variance >= 0 &&
			s.Mean >= s.Min-1e-12 && s.Mean <= s.Max+1e-12 &&
			s.Bottom10 <= s.Mean+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
