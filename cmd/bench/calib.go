// calib.go measures the host's speed. On a shared host, other tenants slow
// every unit by 25–45% for spells of tens of seconds to minutes, longer
// than a run. No statistic over a run's own units removes a slowdown that
// covers the whole run. So the parent times a fixed kernel of the
// benchmark's own — sorting, map updates, hashing, none of it the program's
// code — just before and just after each unit. The end-to-end times are
// then reported at a reference host speed: a unit's time is scaled by
// refCalibS over the kernel's time next to it.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"time"
)

// refCalibS is the reference host speed: about the kernel's time on an
// unloaded vCPU of the 2-vCPU Xeon host baseline.json was recorded on
// (7.6–8.1 ms there). Times scaled to it read close to that host's
// wall-clock seconds when it is quiet.
const refCalibS = 0.008

// calibrator holds the kernel's buffers, so that repeated runs allocate
// nothing and the parent's garbage collector stays out of the timing.
type calibrator struct {
	floats []float64
	bytes  []byte
	m      map[uint64]uint64
}

func newCalibrator() *calibrator {
	return &calibrator{
		floats: make([]float64, 1<<16),
		bytes:  make([]byte, 1<<19),
		m:      make(map[uint64]uint64, 1<<15),
	}
}

// calibSink keeps the kernel's result live.
var calibSink uint64

// time runs the kernel once and returns how long it took in seconds. The
// work is fixed: the same pseudo-random data every call.
func (c *calibrator) time() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range c.floats {
		c.floats[i] = float64(next()%1000000) / 7
	}
	slices.Sort(c.floats)
	clear(c.m)
	for i := 0; i < 40000; i++ {
		c.m[next()%60000] += uint64(i)
	}
	for i := 0; i < len(c.bytes); i += 8 {
		binary.LittleEndian.PutUint64(c.bytes[i:], next())
	}
	sum := sha256.Sum256(c.bytes)
	calibSink += uint64(sum[0]) + uint64(len(c.m)) + uint64(c.floats[100])
	return time.Since(start).Seconds()
}
