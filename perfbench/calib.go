package main

import (
	"crypto/ecdh"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on shares its CPUs and caches with other
// tenants. Its speed flips between a fast and a slow state, about a third
// apart, that each last from a fraction of a second to a few seconds, and
// every timing moves with it, a slow study and a slow report read alike.
// A calibration kernel measures that speed next to each measurement. It
// is the benchmark's own code and calls nothing in the program, so a
// program change moves only the measurements, never the kernel. Every
// end-to-end timing is reported in reference units: divided by the speed
// factor measured around it, the kernel's time over calibNominal.

// calibNominal is the time of one kernel unit on the reference host, a
// 2-vCPU VM, in its fast state. It fixes the unit; any constant would do,
// as long as every compared run uses the same one.
const calibNominal = 2 * time.Millisecond

// calibKernel is the fixed work a calibration unit times, in three parts:
// P-256 key agreement (the program's crypto), random lookups in a map
// larger than the caches (its interning and fingerprint maps) and a sort.
// They were chosen from a five-minute trace of the reference host in which
// a study's time and a snapshot report's each moved by 0.2: the map part
// moved most with the host's state and the key agreement least, and a mix
// of the three tracked the study and the report to within 0.04 and 0.06,
// closer than any one part. SHA-256, which runs in dedicated instructions,
// hardly moved at all and is left out. Everything the kernel touches is
// built once, so it allocates almost nothing and the program's heap cannot
// change its cost through the collector.
type calibKernel struct {
	priv   *ecdh.PrivateKey
	peer   *ecdh.PublicKey
	table  map[uint64]uint32
	keys   []uint64
	unsort []uint32
	work   []uint32
	x      uint64
	sink   uint64
}

const (
	calibECDH    = 10
	calibEntries = 1 << 18
	calibLookups = 10_000
	calibSort    = 1 << 12
)

func newCalibKernel() *calibKernel {
	rng := rand.New(rand.NewSource(20200801))
	seed := make([]byte, 32)
	rng.Read(seed)
	curve := ecdh.P256()
	priv, err := curve.NewPrivateKey(seed)
	if err != nil {
		panic("perfbench: calibration key: " + err.Error())
	}
	seed[0] ^= 1
	other, err := curve.NewPrivateKey(seed)
	if err != nil {
		panic("perfbench: calibration key: " + err.Error())
	}
	k := &calibKernel{
		priv:   priv,
		peer:   other.PublicKey(),
		table:  make(map[uint64]uint32, calibEntries),
		unsort: make([]uint32, calibSort),
		work:   make([]uint32, calibSort),
		x:      1,
	}
	for i := 0; i < calibEntries; i++ {
		key := rng.Uint64()
		k.table[key] = uint32(i)
		k.keys = append(k.keys, key)
	}
	for i := range k.unsort {
		k.unsort[i] = rng.Uint32()
	}
	return k
}

// unit does one unit of the kernel's work.
func (k *calibKernel) unit() {
	for i := 0; i < calibECDH; i++ {
		secret, err := k.priv.ECDH(k.peer)
		if err != nil {
			panic("perfbench: calibration ECDH: " + err.Error())
		}
		k.sink += uint64(secret[0])
	}
	x := k.x
	for i := 0; i < calibLookups; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.sink += uint64(k.table[k.keys[x%calibEntries]])
	}
	k.x = x
	copy(k.work, k.unsort)
	slices.Sort(k.work)
	k.sink += uint64(k.work[calibSort/2])
}

// calibration times kernel units next to a run's measurements.
type calibration struct {
	k     *calibKernel
	last  float64   // the latest speed factor
	units []float64 // every unit's time, seconds
}

const (
	// pointUnits is how many units a point between phases times.
	pointUnits = 15
	// tickUnits is how many units a tick between two measurements of one
	// phase times: a few milliseconds, short enough for the open loop's
	// idle time between batches.
	tickUnits = 3
)

// newCalibration builds the kernel, runs it untimed so no unit pays for
// page faults, and takes the first point.
func newCalibration() *calibration {
	c := &calibration{k: newCalibKernel()}
	for i := 0; i < pointUnits; i++ {
		c.k.unit()
	}
	c.point()
	return c
}

// speed times n units and returns their median over calibNominal.
func (c *calibration) speed(n int) float64 {
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := clock.Now()
		c.k.unit()
		secs = append(secs, since(t0).Seconds())
	}
	c.units = append(c.units, secs...)
	c.last = median(secs) / calibNominal.Seconds()
	return c.last
}

// point ends a phase: it collects the garbage the phase left, so no
// collection runs into the next measurement, and measures the speed.
func (c *calibration) point() float64 {
	runtime.GC()
	return c.speed(pointUnits)
}

// tick measures the speed between two measurements of one phase.
func (c *calibration) tick() float64 { return c.speed(tickUnits) }

// between takes a tick after a measurement and returns the measurement's
// speed factor, the mean of the speeds measured just before and just
// after it.
func (c *calibration) between() float64 {
	before := c.last
	return (before + c.tick()) / 2
}

// samplerEvery is how often the sampler times a unit beside a measurement.
const samplerEvery = 50 * time.Millisecond

// span is what the sampler saw beside one measurement.
type span struct {
	speed     float64       // the measurement's speed factor
	cpu, wall time.Duration // the sampler's own CPU and wall time inside it
}

// during runs f with a sampler beside it: a goroutine that times one unit
// every samplerEvery. On one P the units run between f's own time slices,
// so they see the host as f sees it, however often its speed flips while f
// runs. The span's speed is the median of the units' speeds, the speed
// measured before f and a tick after it. Its CPU and wall time are the
// units', which the caller takes out of its own measurement.
func (c *calibration) during(f func()) span {
	before := c.last
	var sp span
	var units []float64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(samplerEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			t0, c0 := clock.Now(), cpuNow()
			c.k.unit()
			d := since(t0)
			sp.cpu += cpuNow() - c0
			sp.wall += d
			units = append(units, d.Seconds())
		}
	}()
	f()
	close(stop)
	<-done
	c.units = append(c.units, units...)
	speeds := []float64{before, c.tick()}
	for _, u := range units {
		speeds = append(speeds, u/calibNominal.Seconds())
	}
	sp.speed = median(speeds)
	return sp
}
