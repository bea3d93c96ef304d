package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

const (
	// minSNIUsers is the paper's SNI filter.
	minSNIUsers = 3
	// goldenPaper pins study-paper at seed 1 byte for byte.
	goldenPaper = "testdata/golden/report_seed1_scale1.txt"
	// hashScale10 pins study-scale10-asof at seed 1 by sha256; -record-hash
	// rewrites it after checking workers 1 and 2 agree.
	hashScale10 = "perfbench/testdata/scale10_asof_seed1.sha256"
	// reportReps is how many times each traced report timing repeats; the
	// median is reported.
	reportReps = 3
	// unattributedTolerance bounds |traced.unattributed_frac| on a study:
	// beyond it the layer metrics no longer account for the study's time.
	unattributedTolerance = 0.2
)

// studySeed derives the i-th study seed of a run. Studies in one run get
// distinct seeds, so no memo shared across studies can make one cheaper
// than a cold iotls invocation; the first is the workload seed itself, so
// seed 1 meets the pinned outputs.
func studySeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// config is the workload's study configuration.
func (w workload) config(seed int64, workers int) core.Config {
	return core.Config{Seed: seed, Scale: w.scale, MinSNIUsers: minSNIUsers, AsOf: w.asof, Workers: workers}
}

// study runs one core.Run + WriteReport and returns its wall time.
func study(ctx context.Context, cfg core.Config) (*core.Study, []byte, time.Duration, error) {
	t0 := clock.Now()
	st, err := core.Run(ctx, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	var buf bytes.Buffer
	st.WriteReport(&buf)
	return st, buf.Bytes(), since(t0), nil
}

// studies runs studies at default workers, back to back, each with the
// calibration sampler beside it, for budget and at least once. It adds
// their CPU and wall times, in reference seconds, to the run's.
func (b *bench) studies(ctx context.Context, budget time.Duration) {
	start := clock.Now()
	for first := true; first || since(start) < budget; first = false {
		i := b.studied
		b.studied++
		var (
			st   *core.Study
			out  []byte
			wall time.Duration
			cpu  time.Duration
			err  error
		)
		sp := b.cal.during(func() {
			c0 := cpuNow()
			st, out, wall, err = study(ctx, b.w.config(studySeed(b.seed, i), 0))
			cpu = cpuNow() - c0
		})
		b.res.op(err)
		if err != nil {
			continue
		}
		b.studyCPU = append(b.studyCPU, (cpu-sp.cpu).Seconds()/sp.speed)
		b.studyWall = append(b.studyWall, (wall-sp.wall).Seconds()/sp.speed)
		b.checkStudy(i, st, out)
	}
}

// checkStudy gates one study report: byte-exact (paper era) or
// hash-exact (as-of) at the pinned seed, invariants always.
func (b *bench) checkStudy(i int, st *core.Study, out []byte) {
	if b.seed == 1 && i == 0 {
		if b.w.asof.IsZero() {
			want, err := os.ReadFile(goldenPaper)
			b.res.gate(err == nil && bytes.Equal(out, want), "%s: report differs from %s (%v)", b.w.name, goldenPaper, err)
		} else {
			want, err := readHash()
			got := sha256Hex(out)
			b.res.gate(err == nil && got == want, "%s: report sha256 %s, recorded %s (%v)", b.w.name, got, want, err)
		}
	}
	b.checkHeader(out, len(st.Dataset.Devices), st.Dataset.Records.Len())
	if !b.w.asof.IsZero() {
		b.checkAdoption(out, len(st.Dataset.Devices))
	}
}

var studyHeader = regexp.MustCompile(`(?m)^IoT TLS & Certificate Study — (\d+) devices, \d+ users, \d+ models, (\d+) records$`)

// checkHeader requires the report header to state the population it was
// computed over.
func (b *bench) checkHeader(out []byte, devices, records int) {
	m := studyHeader.FindSubmatch(out)
	b.res.gate(m != nil && atoi(m[1]) == devices && atoi(m[2]) == records,
		"%s: header %q, want %d devices and %d records", b.w.name, firstLine(out), devices, records)
}

// checkAdoption requires every adoption-curve row to partition the whole
// device population.
func (b *bench) checkAdoption(out []byte, devices int) {
	const title = "== TLS 1.3 adoption timeline (firmware drift) =="
	text := string(out)
	i := strings.Index(text, title)
	if i < 0 {
		b.res.gate(false, "%s: no adoption timeline in report", b.w.name)
		return
	}
	lines := strings.Split(text[i:], "\n")
	rows := 0
	for _, l := range lines[3:] { // title, column header, rule
		f := strings.Fields(l)
		if len(f) == 0 {
			break
		}
		rows++
		ok := len(f) == 6 && atoi([]byte(f[1]))+atoi([]byte(f[2]))+atoi([]byte(f[3])) == atoi([]byte(f[4])) &&
			atoi([]byte(f[4])) == devices
		b.res.gate(ok, "%s: adoption row %q does not sum to %d devices", b.w.name, l, devices)
	}
	b.res.gate(rows > 0, "%s: empty adoption timeline", b.w.name)
}

func atoi(b []byte) int {
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return -1
	}
	return n
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func readHash() (string, error) {
	b, err := os.ReadFile(hashScale10)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// recordHash recomputes the study-scale10-asof seed-1 report at workers 1
// and 2 and stores its sha256 only when the two are identical.
func recordHash(ctx context.Context) error {
	w, _ := lookup("study-scale10-asof")
	var sums []string
	for _, workers := range []int{1, 2} {
		_, out, _, err := study(ctx, w.config(studySeed(1, 0), workers))
		if err != nil {
			return err
		}
		sums = append(sums, sha256Hex(out))
	}
	if sums[0] != sums[1] {
		return fmt.Errorf("report differs between workers 1 (%s) and 2 (%s)", sums[0], sums[1])
	}
	return os.WriteFile(hashScale10, []byte(sums[0]+"\n"), 0o644)
}

// stageTimes is one serialized study's per-stage cost.
type stageTimes struct {
	busy  map[string]time.Duration
	alloc map[string]uint64
}

// serialStages is core.Stages with every stage chained after the one
// before it, so stages never overlap and each busy time and allocation
// total belongs to exactly one stage.
func serialStages(times *stageTimes) []core.Stage {
	stages := core.Stages()
	for i := range stages {
		if i > 0 {
			stages[i].After = []string{stages[i-1].Name}
		}
		name, run := stages[i].Name, stages[i].Run
		stages[i].Run = func(ctx context.Context, st *core.Study, rec *core.StageRecorder) error {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := clock.Now()
			err := run(ctx, st, rec)
			times.busy[name] = since(t0)
			runtime.ReadMemStats(&m1)
			times.alloc[name] = m1.TotalAlloc - m0.TotalAlloc
			return err
		}
	}
	return stages
}

// tracedStudy times one study serially at workers 1: every stage through
// core.RunStages, then the report, then each report builder on its own.
func (b *bench) tracedStudy(ctx context.Context) {
	cfg := b.w.config(studySeed(b.seed, 0), 1)
	reg := obs.NewRegistry("")
	cfg.Metrics = reg
	tr := obs.NewTracer("perfbench")
	parent := tr.Root().Child("core.Run")
	times := &stageTimes{busy: map[string]time.Duration{}, alloc: map[string]uint64{}}
	st := &core.Study{Config: cfg}

	t0 := clock.Now()
	err := core.RunStages(ctx, st, parent, serialStages(times))
	stagesWall := since(t0)
	parent.End()
	b.res.op(err)
	if err != nil {
		return
	}
	var out bytes.Buffer
	st.WriteReport(&out)
	// The report's share of the traced wall is a median of three renders,
	// like the report layers it is compared with. The first render fills
	// the matcher's memo; timed once each, the two sides left up to 0.14 of
	// a study's wall unattributed.
	reportWall := medianTime(reportReps, func() { st.WriteReport(io.Discard) })
	wall := stagesWall + reportWall
	b.checkStudy(0, st, out.Bytes())

	attributed := time.Duration(0)
	for _, name := range studyStages {
		attributed += times.busy[name]
		b.res.set("core."+name+".busy_s", times.busy[name].Seconds(), 1)
		b.res.set("core."+name+".alloc_mb", float64(times.alloc[name])/(1<<20), 1)
	}
	counts := map[string]int64{}
	for _, sp := range parent.Children() {
		for _, c := range sp.Counts() {
			counts[sp.Name()+"/"+c.Key] = c.Value
		}
	}
	for _, c := range stageCounts {
		v, ok := counts[c.stage+"/"+c.item]
		b.res.gate(ok, "stage %s recorded no %q count", c.stage, c.item)
		b.res.set(c.metric, float64(v), 1)
	}
	value := func(name string) int64 { return reg.Counter(name).Value() }
	b.res.set("dataset.drift_restamped", float64(value("dataset_drift_restamped_records_total")), 1)
	b.res.set("dataset.hello_cache_hit_ratio",
		ratio(value("dataset_hello_cache_hits_total"), value("dataset_hello_cache_misses_total")), 1)
	b.res.set("ingest.memo_hit_ratio",
		ratio(value("ingest_memo_hits_total"), value("ingest_memo_misses_total")), 1)
	b.res.set("pki.trust_cache_hit_ratio",
		ratio(value("pki_trust_cache_hits_total"), value("pki_trust_cache_misses_total")), 1)

	attributed += b.reportLayers(st, out.Len())
	frac := (wall - attributed).Seconds() / wall.Seconds()
	b.res.set("traced.unattributed_frac", frac, 1)
	b.res.gate(frac <= unattributedTolerance && frac >= -unattributedTolerance,
		"traced.unattributed_frac %.4f outside ±%.2f", frac, unattributedTolerance)
}

// reportLayers times the report layer of a finished study at its worker
// count and returns the time attributed to WriteReport's parts.
func (b *bench) reportLayers(st *core.Study, reportBytes int) time.Duration {
	var client, server []report.Table
	tClient := medianTime(reportReps, func() { client = st.ClientTables() })
	tServer := medianTime(reportReps, func() { server = st.ServerTables() })
	tRender := medianTime(reportReps, func() {
		for _, t := range append(client, server...) {
			t.WriteText(io.Discard)
			fmt.Fprintln(io.Discard)
		}
	})
	b.res.set("report.client_tables.busy_s", tClient.Seconds(), reportReps)
	b.res.set("report.server_tables.busy_s", tServer.Seconds(), reportReps)
	b.res.set("report.render.busy_s", tRender.Seconds(), reportReps)
	b.res.set("report.bytes", float64(reportBytes), 1)

	c, m := st.Client, st.Matcher
	builders := map[string]func() report.Table{
		"figure11": func() report.Table { return report.Figure11(c.Figure11()) },
		"table11":  func() report.Table { return report.Table11(c.Table11(m)) },
		"figure2":  func() report.Table { return report.Figure2(c.DoCVendorAll(), c.DoCDeviceAll()) },
		"figure12": func() report.Table { return report.Figure12(c.Figure12()) },
		"figure8":  func() report.Table { return report.Figure8(c.Figure8(m, 10)) },
		"adoption_curve": func() report.Table {
			return report.AdoptionCurve(st.Dataset.AdoptionCurve(timelineDates(b.w.asof)))
		},
	}
	for _, name := range reportTables {
		d := medianTime(reportReps, func() { builders[name]() })
		b.res.set("report."+name+".busy_s", d.Seconds(), reportReps)
	}
	return tClient + tServer + tRender
}

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func()) time.Duration {
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := clock.Now()
		f()
		secs = append(secs, since(t0).Seconds())
	}
	return time.Duration(median(secs) * float64(time.Second))
}

// timelineDates is the report's adoption-curve ladder: the capture
// window's end, each anniversary strictly before asof, and asof itself.
// Paper-era workloads have no timeline table; the builder is timed on the
// 2025-08-01 ladder over their undrifted population.
func timelineDates(asof time.Time) []time.Time {
	if asof.IsZero() {
		asof = asof2025
	}
	dates := []time.Time{time.Date(2020, 8, 1, 0, 0, 0, 0, time.UTC)}
	for d := dates[0].AddDate(1, 0, 0); d.Before(asof); d = d.AddDate(1, 0, 0) {
		dates = append(dates, d)
	}
	if asof.After(dates[len(dates)-1]) {
		dates = append(dates, asof)
	}
	return dates
}
