package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		for _, workers := range []int{1, 2, 3, 8} {
			hits := make([]int32, n)
			ForEachN(n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestForChunkedCoversRange(t *testing.T) {
	for _, n := range []int{1, 5, 64, 1000} {
		for _, workers := range []int{1, 2, 7} {
			var total int64
			ForChunkedN(n, workers, func(_, lo, hi int) {
				atomic.AddInt64(&total, int64(hi-lo))
			})
			if total != int64(n) {
				t.Fatalf("n=%d workers=%d: covered %d", n, workers, total)
			}
		}
	}
}

func TestForChunkedRangesDisjoint(t *testing.T) {
	n := 500
	seen := make([]int32, n)
	ForChunkedN(n, 4, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
}

func TestForGuidedCoversAllIndices(t *testing.T) {
	n := 777
	hits := make([]int32, n)
	ForGuidedN(n, 13, 5, func(i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d hit %d times", i, h)
		}
	}
}

func TestSlicePartition(t *testing.T) {
	check := func(n, workers int) bool {
		if n < 0 || workers < 1 {
			return true
		}
		n %= 10000
		workers = workers%64 + 1
		prev := 0
		for w := 0; w < workers; w++ {
			lo, hi := Slice(n, workers, w)
			if lo != prev || hi < lo {
				return false
			}
			if hi-lo > n/workers+1 {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAwareBoundsMonotoneAndComplete(t *testing.T) {
	weight := []int64{100, 1, 1, 1, 1, 1, 1, 100}
	bounds := DegreeAware(weight, 4)
	if bounds[0] != 0 || bounds[4] != len(weight) {
		t.Fatalf("bounds endpoints wrong: %v", bounds)
	}
	for i := 0; i < 4; i++ {
		if bounds[i] > bounds[i+1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
	}
}

func TestDegreeAwareBalancesSkewedWeights(t *testing.T) {
	// One huge vertex and many tiny ones: the huge one should not
	// share a range with most of the tiny ones.
	weight := make([]int64, 1000)
	weight[0] = 1e6
	for i := 1; i < 1000; i++ {
		weight[i] = 1
	}
	bounds := DegreeAware(weight, 4)
	if bounds[1] != 1 {
		t.Fatalf("heavy vertex should occupy its own range; bounds=%v", bounds[:5])
	}
}

func TestForDegreeAwareCoverage(t *testing.T) {
	weight := make([]int64, 300)
	for i := range weight {
		weight[i] = int64(i % 17)
	}
	seen := make([]int32, 300)
	ForDegreeAware(weight, 5, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d covered %d times", i, s)
		}
	}
}

func TestSumInt64(t *testing.T) {
	n := 10000
	got := SumInt64(n, func(i int) int64 { return int64(i) })
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("SumInt64 = %d, want %d", got, want)
	}
}

func TestSumFloat64(t *testing.T) {
	n := 5000
	got := SumFloat64(n, func(i int) float64 { return 0.5 })
	if got != float64(n)/2 {
		t.Fatalf("SumFloat64 = %g, want %g", got, float64(n)/2)
	}
}

func TestMaxIndexFloat64(t *testing.T) {
	vals := make([]float64, 4096)
	vals[1234] = 7
	vals[9] = 7 // tie: smaller index must win
	idx, v := MaxIndexFloat64(len(vals), func(i int) float64 { return vals[i] })
	if idx != 9 || v != 7 {
		t.Fatalf("MaxIndexFloat64 = (%d, %g), want (9, 7)", idx, v)
	}
}

func TestPrefixSum(t *testing.T) {
	out := PrefixSum([]int64{3, 0, 2, 5})
	want := []int64{0, 3, 3, 5, 10}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("PrefixSum = %v, want %v", out, want)
		}
	}
}

func TestCountInt64(t *testing.T) {
	got := CountInt64(100, func(i int) bool { return i%3 == 0 })
	if got != 34 {
		t.Fatalf("CountInt64 = %d, want 34", got)
	}
}

func TestMinMaxInt64(t *testing.T) {
	vals := []int64{5, -2, 9, 0}
	mn, mx := MinMaxInt64(len(vals), func(i int) int64 { return vals[i] })
	if mn != -2 || mx != 9 {
		t.Fatalf("MinMax = (%d, %d), want (-2, 9)", mn, mx)
	}
}

// The second phase of every range starts only after the first phase of
// all ranges has finished, and both phases cover each non-empty range
// exactly once on the same worker index.
func TestForTwoPhaseBarrier(t *testing.T) {
	for _, bounds := range [][]int{{0, 10}, {0, 3, 3, 9, 20}, {0, 0, 5}, {0, 4, 8, 12}, {2, 2}} {
		workers := len(bounds) - 1
		var firsts int64
		seen := make([]int32, bounds[workers])
		ForTwoPhase(bounds, func(w, lo, hi int) {
			if lo != bounds[w] || hi != bounds[w+1] || lo >= hi {
				t.Errorf("bounds %v: first got range %d [%d,%d)", bounds, w, lo, hi)
			}
			atomic.AddInt64(&firsts, 1)
		}, func(w, lo, hi int) {
			active := int64(0)
			for v := 0; v < workers; v++ {
				if bounds[v] < bounds[v+1] {
					active++
				}
			}
			if got := atomic.LoadInt64(&firsts); got != active {
				t.Errorf("bounds %v: second phase of %d saw %d of %d first phases", bounds, w, got, active)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i := bounds[0]; i < bounds[workers]; i++ {
			if seen[i] != 1 {
				t.Fatalf("bounds %v: index %d covered %d times", bounds, i, seen[i])
			}
		}
	}
}
