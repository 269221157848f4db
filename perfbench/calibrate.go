package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference box is a shared VM whose CPU speed drifts by tens of
// percent over minutes, which no statistic taken inside one run can
// remove. So every timed figure is scaled to a machine of fixed speed:
// calibrate times a fixed amount of CPU work that shares no code with vC2M
// right before and right after each measured round, and the round's rates
// and times are scaled by how fast that work ran compared with calRef.

// calRef is calibrate's result on the reference machine: timed figures
// read as if measured on a machine where calibrate takes this long.
const calRef = 40 * time.Millisecond

// speed is the machine's speed relative to calRef, from the calibrations
// taken before and after a measurement: above 1 on a faster machine.
func speed(before, after time.Duration) float64 {
	return float64(2*calRef) / float64(before+after)
}

// calibrate runs the calibration work three times on every CPU at once
// and returns the mean time per CPU. It allocates nothing once its
// buffers exist, so calibrating inside a measured phase leaves the
// phase's allocation and GC figures alone.
func calibrate() time.Duration {
	n := runtime.GOMAXPROCS(0)
	calOnce.Do(func() {
		calBufs = make([]calBuf, n)
		for i := range calBufs {
			calBufs[i] = calBuf{bytes: make([]byte, 1<<20), vals: make([]float64, 1<<16)}
		}
	})
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for k := 0; k < 3; k++ {
				calBufs[c].work()
			}
			calBufs[c].took = time.Since(start)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for c := 0; c < n; c++ {
		sum += calBufs[c].took
	}
	return sum / time.Duration(n)
}

// calBuf is one CPU's calibration scratch.
type calBuf struct {
	bytes []byte
	vals  []float64
	sum   [sha256.Size]byte
	took  time.Duration
}

var (
	calOnce sync.Once
	calBufs []calBuf
)

// work fills the buffer from a xorshift generator, sorts floats drawn from
// the same generator and hashes the buffer.
func (b *calBuf) work() {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range b.bytes {
		b.bytes[i] = byte(next())
	}
	for i := range b.vals {
		b.vals[i] = float64(next()>>11) / (1 << 53)
	}
	sort.Float64s(b.vals)
	b.sum = sha256.Sum256(b.bytes)
}
