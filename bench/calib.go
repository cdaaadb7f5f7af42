package main

import (
	"runtime"
	"sync"
	"time"
)

// The host this benchmark was sized on is a small shared VM whose speed
// moves by a quarter and more, in bursts of half a second and in phases
// of minutes — more than any change worth measuring, and more than any
// regression bound the benchmark may declare. Percentiles, best-of-reps
// and longer runs do not help against a phase that outlasts the run.
//
// So the benchmark measures the host while it measures the program. At
// every round boundary, inside the OnRound callback and outside every
// timed interval, it runs a calibration: a fixed piece of work with the
// instruction mix of the workloads' hot path (training steps of a small
// MLP: scalar multiply-add loops over freshly allocated slices) on every
// pinned processor at once. The kernel is written here and frozen;
// nothing in the repository can make it faster. Each round interval is
// then scaled by calibNominal over the median of the calibrations around
// it (calibWindow rounds either side), which reports the time the round
// would have taken at the speed of an undisturbed sizing host. Over ten
// runs in a slow phase that took the spread of round_ms_p50 from 21 %
// to 6 %, and of round_ms_p90 from 24 % to 3 %; see README.md.

// calibNominal is the calibration's undisturbed time on the sizing host.
const calibNominal = 3400 * time.Microsecond

// calibWindow is how many rounds either side of a round contribute
// their calibrations to the round's host-speed estimate: wide enough to
// smooth a 3 ms sample's own noise, narrow enough to follow a burst.
const calibWindow = 10

const (
	calibBatch, calibIn, calibHidden, calibOut = 32, 32, 64, 32
	calibSteps                                 = 12
)

// calibSink keeps the kernel's result alive so the compiler cannot drop
// the work.
var calibSink float64

// matmulInto is out(m×n) += a(m×k) · b(k×n), the repository's scalar
// inner loop at the time the benchmark was written.
func matmulInto(out, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			brow := b[p*n : (p+1)*n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

func transpose(a []float64, m, n int) []float64 {
	t := make([]float64, len(a))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t[j*m+i] = a[i*n+j]
		}
	}
	return t
}

// calibKernel trains a two-layer MLP for calibSteps steps of plain SGD
// on fixed data, allocating every intermediate afresh as an autograd
// graph without an arena does.
func calibKernel() float64 {
	const b, in, hid, out = calibBatch, calibIn, calibHidden, calibOut
	x := make([]float64, b*in)
	y := make([]float64, b*out)
	w1 := make([]float64, in*hid)
	w2 := make([]float64, hid*out)
	for i := range x {
		x[i] = float64(i%13)*0.1 - 0.6
	}
	for i := range y {
		y[i] = float64(i%7)*0.1 - 0.3
	}
	for i := range w1 {
		w1[i] = float64(i%11)*0.02 - 0.1
	}
	for i := range w2 {
		w2[i] = float64(i%5)*0.04 - 0.08
	}
	var loss float64
	for s := 0; s < calibSteps; s++ {
		h := make([]float64, b*hid)
		matmulInto(h, x, w1, b, in, hid)
		act := make([]float64, b*hid)
		for i, v := range h {
			if v > 0 {
				act[i] = v
			}
		}
		pred := make([]float64, b*out)
		matmulInto(pred, act, w2, b, hid, out)
		dpred := make([]float64, b*out)
		loss = 0
		for i := range pred {
			d := pred[i] - y[i]
			loss += d * d
			dpred[i] = 2 * d / float64(len(pred))
		}
		dw2 := make([]float64, hid*out)
		matmulInto(dw2, transpose(act, b, hid), dpred, hid, b, out)
		dact := make([]float64, b*hid)
		matmulInto(dact, dpred, transpose(w2, hid, out), b, out, hid)
		for i, v := range h {
			if v <= 0 {
				dact[i] = 0
			}
		}
		dw1 := make([]float64, in*hid)
		matmulInto(dw1, transpose(x, b, in), dact, in, b, hid)
		for i := range w1 {
			w1[i] -= 0.01 * dw1[i]
		}
		for i := range w2 {
			w2[i] -= 0.01 * dw2[i]
		}
	}
	return loss
}

// calibrate runs the kernel on every pinned processor at once and
// returns the wall time until the last one is done.
func calibrate() time.Duration {
	var wg sync.WaitGroup
	results := make([]float64, pinGOMAXPROCS)
	start := time.Now()
	for p := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[p] = calibKernel()
		}()
	}
	wg.Wait()
	d := time.Since(start)
	calibSink = results[0]
	return d
}

// calibrationCost measures what one calibrate call allocates, so the
// calls made inside the training stage can be taken out of its
// allocation counters. The kernel's allocations are a fixed list.
func calibrationCost() (mallocs, bytes uint64) {
	const n = 20
	calibrate() // goroutine stacks and the like exist after the first call
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		calibrate()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}
