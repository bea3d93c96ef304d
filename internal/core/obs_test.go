package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// spanShape flattens a span tree to "depth:name" lines in tree order,
// ignoring timings, so shapes can be compared across runs.
func spanShape(sp *obs.Span, depth int, out *[]string) {
	*out = append(*out, fmt.Sprintf("%d:%s", depth, sp.Name()))
	for _, c := range sp.Children() {
		spanShape(c, depth+1, out)
	}
}

// TestSpanTreeShapeDeterministic: the span tree has the same shape for
// every worker count — stages are pre-allocated in definition order, so
// concurrent scheduling cannot reorder siblings.
func TestSpanTreeShapeDeterministic(t *testing.T) {
	var want []string
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		tr := obs.NewTracer("test")
		_, err := Run(context.Background(), Config{
			Seed: 31, Scale: 0.2, MinSNIUsers: 2, Workers: workers, Tracer: tr,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var shape []string
		spanShape(tr.Root(), 0, &shape)
		if want == nil {
			want = shape
			// The fixed pipeline: root, core.Run, then the seven stages in
			// definition order.
			expect := []string{"0:test", "1:core.Run"}
			for _, s := range Stages() {
				expect = append(expect, "2:"+s.Name)
			}
			if strings.Join(shape, "\n") != strings.Join(expect, "\n") {
				t.Fatalf("span tree shape:\n%s\nwant:\n%s",
					strings.Join(shape, "\n"), strings.Join(expect, "\n"))
			}
			continue
		}
		if strings.Join(shape, "\n") != strings.Join(want, "\n") {
			t.Errorf("workers=%d: span tree shape diverged:\n%s\nwant:\n%s",
				workers, strings.Join(shape, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestMetricsReconcileWithProbeStats: the counters the engine publishes
// must agree exactly with the Stats totals it returns.
func TestMetricsReconcileWithProbeStats(t *testing.T) {
	m := obs.NewRegistry("test")
	cfg := Config{
		Seed: 31, Scale: 0.2, MinSNIUsers: 2, Workers: 4, Metrics: m,
		// virtualSleep keeps injected stalls from hanging until the
		// attempt timeout; fault decisions and counts are unaffected.
		Faults: &simnet.Faults{Seed: 7, TransientRate: 0.2,
			Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }},
	}
	// Nanosecond backoff keeps the retries from sleeping for real.
	cfg.Probe.BackoffBase = time.Nanosecond
	cfg.Probe.BackoffMax = time.Nanosecond
	s, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	stats := s.Server.ProbeStats
	for _, tc := range []struct {
		series string
		want   int
	}{
		{"test_probe_attempts_total", stats.Attempts},
		{"test_probe_retries_total", stats.Retries},
		{"test_probe_successes_total", stats.Successes},
		{"test_probe_recovered_after_retry_total", stats.RecoveredAfterRetry},
		{"test_probe_breaker_opens_total", stats.BreakerOpens},
		{"test_probe_breaker_fast_fails_total", stats.BreakerFastFails},
	} {
		if got := obs.SumSeries(samples, tc.series); got != float64(tc.want) {
			t.Errorf("%s = %v, stats say %d", tc.series, got, tc.want)
		}
	}
	// The handshake-latency histogram observes exactly the successful or
	// failed real probe calls (one sample per attempt).
	if got := obs.SumSeries(samples, "test_probe_handshake_seconds_count"); got != float64(stats.Attempts) {
		t.Errorf("handshake histogram count = %v, want %d attempts", got, stats.Attempts)
	}
	// Stage item counters reconcile with the study too.
	if got := obs.SumSeries(samples, "test_ingest_records_total"); got != float64(s.Dataset.Records.Len()) {
		t.Errorf("ingest_records_total = %v, dataset has %d", got, s.Dataset.Records.Len())
	}
}

// TestCancelledContextReturnsPromptly: a pre-cancelled context aborts the
// run long before a single attempt timeout elapses.
func TestCancelledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Seed: 31, Scale: 0.2, MinSNIUsers: 2}
	cfg.Probe.AttemptTimeout = 5 * time.Second
	start := time.Now()
	_, err := Run(ctx, cfg)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Run succeeded under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed >= cfg.Probe.AttemptTimeout {
		t.Fatalf("Run took %v, want well under the %v attempt timeout", elapsed, cfg.Probe.AttemptTimeout)
	}
}

// TestConfigValidate: every bad field yields its typed sentinel.
func TestConfigValidate(t *testing.T) {
	valid := Config{Seed: 1, Scale: 0.5, MinSNIUsers: 2}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want error
	}{
		{"valid", func(*Config) {}, nil},
		{"negative workers", func(c *Config) { c.Workers = -1 }, ErrBadWorkers},
		{"zero scale", func(c *Config) { c.Scale = 0 }, ErrBadScale},
		{"negative scale", func(c *Config) { c.Scale = -2 }, ErrBadScale},
		{"zero min sni users", func(c *Config) { c.MinSNIUsers = 0 }, ErrBadMinSNIUsers},
		{"faults with real tls", func(c *Config) {
			c.Faults = &simnet.Faults{TransientRate: 0.1}
			c.RealTLS = true
		}, ErrFaultsWithRealTLS},
	} {
		cfg := valid
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
		// Run surfaces the same typed error.
		if _, runErr := Run(context.Background(), cfg); !errors.Is(runErr, tc.want) {
			t.Errorf("%s: Run() = %v, want %v", tc.name, runErr, tc.want)
		}
	}
}

// TestReportByteIdenticalWithObservability: attaching a tracer and a
// metrics registry must not change a single byte of the report.
func TestReportByteIdenticalWithObservability(t *testing.T) {
	base := Config{Seed: 17, Scale: 0.2, MinSNIUsers: 2}
	plain, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	observed := base
	observed.Tracer = obs.NewTracer("test")
	observed.Metrics = obs.NewRegistry("test")
	traced, err := Run(context.Background(), observed)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	plain.WriteReport(&a)
	traced.WriteReport(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("report bytes differ with observability attached")
	}
	if traced.Config.Tracer.Root().Duration() <= 0 {
		t.Error("root span has no duration")
	}
}

// TestRunStagesRejectsBadDAGs: the runner validates the stage graph
// before launching anything.
func TestRunStagesRejectsBadDAGs(t *testing.T) {
	st := &Study{Config: Config{Seed: 1, Scale: 0.1, MinSNIUsers: 2}}
	noop := func(context.Context, *Study, *StageRecorder) error { return nil }
	for _, tc := range []struct {
		name   string
		stages []Stage
		want   string
	}{
		{"unnamed", []Stage{{Run: noop}}, "no name"},
		{"duplicate", []Stage{{Name: "a", Run: noop}, {Name: "a", Run: noop}}, "duplicate"},
		{"unknown dep", []Stage{{Name: "a", After: []string{"zz"}, Run: noop}}, "unknown"},
		{"forward dep", []Stage{{Name: "a", After: []string{"b"}, Run: noop}, {Name: "b", Run: noop}}, "later"},
	} {
		err := RunStages(context.Background(), st, nil, tc.stages)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRunStagesFirstErrorWins: when a mid-pipeline stage fails, the
// wrapped error names that stage and downstream stages never run.
func TestRunStagesFirstErrorWins(t *testing.T) {
	st := &Study{Config: Config{Seed: 1, Scale: 0.1, MinSNIUsers: 2}}
	boom := errors.New("boom")
	var downstream bool
	stages := []Stage{
		{Name: "ok", Run: func(context.Context, *Study, *StageRecorder) error { return nil }},
		{Name: "fail", After: []string{"ok"}, Run: func(context.Context, *Study, *StageRecorder) error { return boom }},
		{Name: "after", After: []string{"fail"}, Run: func(context.Context, *Study, *StageRecorder) error {
			downstream = true
			return nil
		}},
	}
	err := RunStages(context.Background(), st, nil, stages)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "stage fail") {
		t.Fatalf("err = %v, want wrapped boom naming stage fail", err)
	}
	if downstream {
		t.Fatal("downstream stage ran after upstream failure")
	}
}

// reportTableNames is the fixed set of report table names: every span
// below "report" is report/<name> and every report_table_seconds series
// carries table=<name> for one of these.
var reportTableNames = []string{
	"lib_match", "table2", "figure2", "table3", "table4", "table5", "vuln_stats",
	"table11", "figure8", "table12", "figure11", "figure12", "census",
	"extension_frequencies", "table10", "table13", "adoption_curve", "downgrade_stragglers",
	"table6", "sharing", "figure5", "table7", "table8", "table14", "cn_mismatches",
	"figure6", "table9", "ct_stats", "table15", "table16", "probe_stats", "report_cards",
	"serverfp_census", "serverfp_vendor_stacks",
}

// TestReportTableSpansAndMetrics: with every optional table enabled,
// WriteReport opens one report/<table> span per table in report order,
// observes report_table_seconds under exactly the fixed table names
// (a second render adds observations, not series), and renders the same
// bytes as an unobserved run.
func TestReportTableSpansAndMetrics(t *testing.T) {
	base := Config{
		Seed: 17, Scale: 0.2, MinSNIUsers: 2, ServerFP: true,
		AsOf: time.Date(2025, 8, 1, 0, 0, 0, 0, time.UTC),
	}
	plain, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	observed := base
	observed.Tracer = obs.NewTracer("test")
	observed.Metrics = obs.NewRegistry("test")
	traced, err := Run(context.Background(), observed)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	plain.WriteReport(&a)
	traced.WriteReport(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("report bytes differ with a tracer and metrics attached")
	}

	var spans []string
	for _, sp := range observed.Tracer.Root().Children() {
		if sp.Name() != "report" {
			continue
		}
		for _, c := range sp.Children() {
			spans = append(spans, c.Name())
		}
	}
	var want []string
	for _, name := range reportTableNames {
		want = append(want, "report/"+name)
	}
	if strings.Join(spans, " ") != strings.Join(want, " ") {
		t.Fatalf("report spans:\n%s\nwant:\n%s", strings.Join(spans, "\n"), strings.Join(want, "\n"))
	}

	labels := func() []string {
		var exp bytes.Buffer
		if err := observed.Metrics.WritePrometheus(&exp); err != nil {
			t.Fatal(err)
		}
		series, err := obs.ParseText(&exp)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for key, v := range series {
			if name, ok := strings.CutPrefix(key, `test_report_table_seconds_count{table="`); ok {
				out = append(out, fmt.Sprintf("%s=%v", strings.TrimSuffix(name, `"}`), v))
			}
		}
		sort.Strings(out)
		return out
	}
	countsWant := func(n int) []string {
		var out []string
		for _, name := range reportTableNames {
			out = append(out, fmt.Sprintf("%s=%d", name, n))
		}
		sort.Strings(out)
		return out
	}
	if got := labels(); strings.Join(got, " ") != strings.Join(countsWant(1), " ") {
		t.Fatalf("report_table_seconds series:\n%v\nwant:\n%v", got, countsWant(1))
	}
	traced.WriteReport(io.Discard)
	if got := labels(); strings.Join(got, " ") != strings.Join(countsWant(2), " ") {
		t.Fatalf("after a second render, report_table_seconds series:\n%v\nwant:\n%v", got, countsWant(2))
	}
}
