// Package par provides the parallel execution primitives used by every
// SNAP kernel: bounded worker pools, static and guided loop scheduling,
// and degree-aware work partitioning for graphs with skewed degree
// distributions.
//
// The primitives mirror the scheduling strategies described in the SNAP
// paper (Bader & Madduri, IPDPS 2008): level-synchronous kernels use
// static chunking over contiguous index ranges, while kernels operating
// on small-world graphs use degree-aware partitioning so that a handful
// of high-degree vertices cannot serialize a phase.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers reports the number of workers a parallel kernel should use.
// It honors GOMAXPROCS, which the benchmark harness sweeps to produce
// the paper's speedup curves.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes body(i) for every i in [0, n) using up to Workers()
// goroutines. Indices are divided into contiguous static chunks, one per
// worker, which matches the paper's static scheduling of O(n) sweeps.
// ForEach returns once every invocation has completed.
func ForEach(n int, body func(i int)) {
	ForEachN(n, Workers(), body)
}

// ForEachN is ForEach with an explicit worker count. A worker count of
// one (or n < 2) executes the loop serially on the calling goroutine,
// avoiding any synchronization overhead.
func ForEachN(n, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := Slice(n, workers, w)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// ForChunked invokes body(lo, hi) for contiguous index ranges covering
// [0, n), one range per worker. Kernels that keep per-worker state (for
// example per-worker frontier buffers) use this form to amortize that
// state across a whole range instead of paying for it per element.
func ForChunked(n int, body func(worker, lo, hi int)) {
	ForChunkedN(n, Workers(), body)
}

// ForChunkedN is ForChunked with an explicit worker count.
func ForChunkedN(n, workers int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := Slice(n, workers, w)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ForGuided invokes body(i) for every i in [0, n) using dynamic (guided)
// scheduling: workers claim fixed-size blocks from a shared counter.
// This suits loops with irregular per-iteration cost, such as per-vertex
// work proportional to degree, when a degree-aware static partition is
// not available.
func ForGuided(n, grain int, body func(i int)) {
	ForGuidedN(n, grain, Workers(), body)
}

// ForGuidedN is ForGuided with an explicit worker count.
func ForGuidedN(n, grain, workers int, body func(i int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if workers > (n+grain-1)/grain {
		workers = (n + grain - 1) / grain
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
}

// Slice returns the half-open index range [lo, hi) assigned to worker w
// when n items are divided evenly among `workers` workers. The first
// n % workers workers receive one extra item, so ranges differ in length
// by at most one.
func Slice(n, workers, w int) (lo, hi int) {
	q, r := n/workers, n%workers
	lo = w*q + min(w, r)
	hi = lo + q
	if w < r {
		hi++
	}
	return lo, hi
}

// DegreeAware partitions [0, n) into `workers` contiguous ranges with
// approximately equal total weight, where weight[i] is the work estimate
// for item i (typically vertex degree). It returns the range boundaries:
// worker w processes [bounds[w], bounds[w+1]). This is the paper's fix
// for severe phase imbalance on skewed degree distributions.
func DegreeAware(weight []int64, workers int) []int {
	n := len(weight)
	bounds := make([]int, workers+1)
	bounds[workers] = n
	if workers <= 1 || n == 0 {
		return bounds
	}
	var total int64
	for _, w := range weight {
		total += w + 1 // +1 so zero-degree vertices still carry cost
	}
	per := total / int64(workers)
	if per == 0 {
		per = 1
	}
	var acc int64
	next := 1
	for i := 0; i < n && next < workers; i++ {
		acc += weight[i] + 1
		if acc >= per*int64(next) {
			bounds[next] = i + 1
			next++
		}
	}
	for ; next < workers; next++ {
		bounds[next] = n
	}
	return bounds
}

// ForTwoPhase runs first(w, bounds[w], bounds[w+1]) for every non-empty
// range w, waits until all of them have returned, then runs second
// over the same ranges. Both phases of a range run on one goroutine
// (the caller's, for the first non-empty range) behind an internal
// barrier, so a kernel whose second pass must see everything the first
// wrote pays one fan-out instead of two.
func ForTwoPhase(bounds []int, first, second func(worker, lo, hi int)) {
	workers, active := len(bounds)-1, 0
	for w := 0; w < workers; w++ {
		if bounds[w] < bounds[w+1] {
			active++
		}
	}
	if active <= 1 {
		for w := 0; w < workers; w++ {
			if bounds[w] < bounds[w+1] {
				first(w, bounds[w], bounds[w+1])
				second(w, bounds[w], bounds[w+1])
			}
		}
		return
	}
	// One variable for both groups: the goroutines capture it, so it
	// costs a single heap allocation.
	var wg struct{ barrier, done sync.WaitGroup }
	wg.barrier.Add(active)
	run := func(w int) {
		lo, hi := bounds[w], bounds[w+1]
		first(w, lo, hi)
		wg.barrier.Done()
		wg.barrier.Wait()
		second(w, lo, hi)
	}
	caller := -1
	for w := 0; w < workers; w++ {
		if bounds[w] >= bounds[w+1] {
			continue
		}
		if caller < 0 {
			caller = w
			continue
		}
		wg.done.Add(1)
		go func(w int) {
			defer wg.done.Done()
			run(w)
		}(w)
	}
	run(caller)
	wg.done.Wait()
}

// ForDegreeAware runs body over [0, n) with one goroutine per
// degree-aware range computed from weight.
func ForDegreeAware(weight []int64, workers int, body func(worker, lo, hi int)) {
	n := len(weight)
	if n == 0 {
		return
	}
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	bounds := DegreeAware(weight, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
