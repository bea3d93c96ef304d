// Command perfbench is the repository's benchmark. It drives the study
// pipeline (core.Run + WriteReport) and the iotlsd ingest daemon
// (service.New behind service.Handler on a loopback listener) through
// their public entry points, checks their outputs, and prints one JSON
// result line. See README.md in this directory for the workloads, the
// metrics and what each layer metric should move.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload study-scale10-asof --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one input regime. Every workload runs both halves of the
// system on its own population: a study half and a daemon half.
type workload struct {
	name string
	// scale sizes the studies' population; asof dates both the studies
	// and the daemon's record pool.
	scale float64
	asof  time.Time
}

var asof2025 = time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC)

var workloads = []workload{
	{name: "study-paper", scale: 1},
	{name: "study-scale10-asof", scale: 10, asof: asof2025},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runLimit is the hard wall-clock cap of one invocation; a wedged run
// exits non-zero without printing a result.
const runLimit = 170 * time.Second

// bench is one invocation's state.
type bench struct {
	w       workload
	seed    int64
	seconds time.Duration
	res     *result
	// studyCPU and studyWall are the run's study times in reference
	// units; studied counts the studies begun, which numbers the next
	// study's seed.
	studyCPU, studyWall []float64
	studied             int
	// cal times the calibration kernel beside and between the
	// measurements; its speed factors turn every end-to-end timing into
	// reference units.
	cal *calibration
}

func main() {
	name := flag.String("workload", "", "workload name: study-paper or study-scale10-asof")
	seed := flag.Int64("seed", 1, "workload seed; inputs are a pure function of it")
	seconds := flag.Int("seconds", 40, "measured seconds, split over the rounds: a third for studies, the rest for the daemon open loop")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a serialized traced run")
	probe := flag.Bool("setup-probe", false, "internal: time one cold set-up and print seconds")
	record := flag.Bool("record-hash", false, "recompute the study-scale10-asof seed-1 report hash at workers 1 and 2, check they agree, and store it")
	spreads := flag.Bool("spread", false, "read result lines on stdin and print each metric's median, quartiles and spread")
	flag.Parse()
	// One P: the program runs on one CPU of the two the host lends, so a
	// tenant busy on the other changes neither the measured work nor the
	// calibration kernel timed beside it. The studies and the daemon run
	// at their default worker count, which is then 1.
	runtime.GOMAXPROCS(1)

	if *spreads {
		if err := printSpreads(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := lookup(*name)
	if !ok && !*record {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	// Cancelling ahead of the watchdog kills any set-up probe still
	// running, so no child outlives the run.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit-10*time.Second)
	defer cancel()
	switch {
	case *record:
		if err := recordHash(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	case *probe:
		d, err := setupOnce(ctx, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: setup: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(d.Seconds())
		return
	}

	// The benchmark measures the program around it; a directory holding
	// only the benchmark cannot be measured.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		os.Exit(2)
	}

	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		b.res = newResult(perLayerSpecs(), os.Stderr)
		b.traced(ctx)
	} else {
		b.res = newResult(endToEndSpecs, os.Stderr)
		b.endToEnd(ctx)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d trace %d\n", w.name, *seed, *trace)
	if err := b.res.write(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !b.res.correct() {
		os.Exit(1)
	}
}

// rounds is how many times a run alternates its two halves. Each round
// runs studies, then a fresh daemon through a backlog replay, an open loop
// and report reads, so every metric samples the whole run instead of one
// stretch of it: a host slowdown of a few seconds touches one round of
// each metric, not all of one metric.
const rounds = 5

// phases divides one round's share of the measured time: a third to
// studies, five twelfths to the daemon's open loop, whose tails need the
// samples, and a quarter to report reads.
type phases struct{ study, open, read time.Duration }

func (b *bench) roundSplit() phases {
	per := b.seconds / rounds
	return phases{study: per / 3, open: per * 5 / 12, read: per - per/3 - per*5/12}
}

// endToEnd is the untraced run: cold set-up, then rounds of studies and
// daemons, each timing divided by the speed the calibration kernel
// measured around it.
func (b *bench) endToEnd(ctx context.Context) {
	b.cal = newCalibration()
	if setup, n, err := medianSetup(ctx, b.w, b.cal); err != nil {
		b.res.op(fmt.Errorf("setup: %w", err))
	} else {
		b.res.set("setup_s", setup, n)
	}
	ph := b.roundSplit()
	// Each round's daemon ingests a stream of its own, so the daemon
	// figures are taken over five draws of the pool, not one.
	seqs, err := makeSequences(b.w, b.seed, rounds, backlogBatches+openBatches(ph.open))
	if err != nil {
		b.res.op(err)
		return
	}
	b.cal.point()
	var dm daemonSamples
	for r := 0; r < rounds; r++ {
		ns, nt, nr := len(b.studyCPU), len(dm.visibleTails), len(dm.reads)
		b.studies(ctx, ph.study)
		b.cal.point()
		if !b.daemonRound(ctx, seqs[r], ph, &dm) {
			break
		}
		// One line per round, when the round produced every figure.
		if len(b.studyCPU) > ns && len(dm.visibleTails) > nt && len(dm.reads) > nr {
			fmt.Fprintf(os.Stderr, "perfbench: round %d: study %.4f s, replay %.0f rec/s, tails visible %.3f submit %.3f ms, read p50 %.2f ms, speed %.3f\n",
				r, median(b.studyCPU[ns:]), dm.rates[len(dm.rates)-1], dm.visibleTails[nt], dm.submitTails[nt], median(dm.reads[nr:]), b.cal.last)
		}
	}
	b.res.note("calib.unit_ms", 1000*median(b.cal.units), "ms", len(b.cal.units))
	if len(b.studyCPU) > 0 {
		b.res.set("study_cpu_s", median(b.studyCPU), len(b.studyCPU))
		b.res.note("study wall s", median(b.studyWall), "s", len(b.studyWall))
	}
	b.setDaemonMetrics(&dm)
	rss, err := peakRSSMB()
	b.res.op(err)
	if err == nil {
		b.res.set("peak_rss_mb", rss, 1)
	}
}

// traced is the per-layer run: every layer timed serially at one worker,
// over the batch stream the untraced run's first daemon ingests.
func (b *bench) traced(ctx context.Context) {
	seqs, err := makeSequences(b.w, b.seed, 1, backlogBatches+openBatches(b.roundSplit().open))
	if err != nil {
		b.res.op(err)
		return
	}
	b.tracedStudy(ctx)
	b.tracedDaemon(ctx, seqs[0])
}
