package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/probe"
)

// tailBeyond is how many samples must lie above a reported tail: the tail
// is the highest percentile the sample still supports.
const tailBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, the mean of the two middle values for
// an even count. It panics on an empty sample: every caller has at least
// one measurement by construction.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("perfbench: median of empty sample")
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least tailBeyond
// samples strictly above it, and the percentile that value sits at. A
// sample too small to have such a value is an error, not a silent max.
func tail(xs []float64) (value, pct float64, err error) {
	n := len(xs)
	if n < tailBeyond+1 {
		return 0, 0, fmt.Errorf("tail needs at least %d samples, have %d", tailBeyond+1, n)
	}
	s := sorted(xs)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method: cut point i sits at rank (n+1)*i/4,
// interpolated between neighbours (and, like Python, extrapolated from
// the outermost pair when the rank falls outside the sample).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		panic("perfbench: quartiles need at least two samples")
	}
	at := func(i int) float64 {
		m := i * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance of xs as a share of its median,
// the figure a run-to-run stability check compares against a bound.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// clock is the wall clock every timing reads, through the same injectable
// clock the daemon itself uses: the benchmark measures wall time by design.
var clock = probe.RealClock()

// since is the wall time elapsed from t.
func since(t time.Time) time.Duration { return clock.Now().Sub(t) }

// cpuNow is the CPU time this process has used. The kernel charges a
// thread only for the time it ran, so a stretch in which the hypervisor
// held the vCPU adds to wall time but not to this clock. On failure it
// returns 0, which makes every figure taken from it fail its check.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is hits/(hits+misses), 0 when nothing was attempted (JSON has no
// NaN).
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// printSpreads reads result lines, one run each, and prints every metric's
// run-to-run figures: the check a benchmark's bounds are set against.
func printSpreads(in io.Reader, out io.Writer) error {
	values := map[string][]float64{}
	var names []string
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var run struct {
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return fmt.Errorf("result line %q: %w", sc.Text(), err)
		}
		for name, m := range run.Metrics {
			if values[name] == nil {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		xs := values[name]
		if len(xs) < 2 {
			return fmt.Errorf("%s: need two runs or more, have %d", name, len(xs))
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(out, "%-36s n=%-3d q1 %-14.6g median %-14.6g q3 %-14.6g spread %.4f\n",
			name, len(xs), q1, q2, q3, spread(xs))
	}
	return nil
}
