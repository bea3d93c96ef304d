package repro_bench

import (
	"context"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestMetricsExpositionFile verifies a metrics dump produced by a traced
// iotls run: the exposition parses and the key pipeline counters are
// nonzero. CI's bench-smoke job runs `iotls -metrics FILE` and then this
// test with METRICS_FILE=FILE; without the variable the test is skipped.
func TestMetricsExpositionFile(t *testing.T) {
	path := os.Getenv("METRICS_FILE")
	if path == "" {
		t.Skip("METRICS_FILE not set (CI smoke check only)")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := obs.ParseText(f)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("exposition is empty")
	}
	for _, series := range []string{
		"iotls_stage_runs_total",
		"iotls_probe_attempts_total",
		"iotls_probe_successes_total",
		"iotls_ingest_records_total",
		"iotls_pki_verdicts_total",
		"iotls_dataset_records_total",
		"iotls_report_tables_total",
		"iotls_report_table_seconds_count",
	} {
		if got := obs.SumSeries(samples, series); got <= 0 {
			t.Errorf("%s = %v, want > 0", series, got)
		}
	}
	// Every pipeline stage ran exactly once.
	if got := obs.SumSeries(samples, "iotls_stage_runs_total"); got != float64(len(core.Stages())) {
		t.Errorf("stage_runs_total = %v, want %d", got, len(core.Stages()))
	}
}

// BenchmarkCoreRun is the PR 3 tentpole gate: end-to-end pipeline wall
// time at paper scale with observability off — the <2% no-op overhead
// comparison against the PR 2 baseline (see EXPERIMENTS.md).
func BenchmarkCoreRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), core.Config{Seed: 20231024, Scale: 1.0, MinSNIUsers: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreRunObserved is the same run with a tracer and registry
// attached, so the cost of live instrumentation is visible next to the
// no-op number.
func BenchmarkCoreRunObserved(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Seed: 20231024, Scale: 1.0, MinSNIUsers: 3,
			Tracer:  obs.NewTracer("bench"),
			Metrics: obs.NewRegistry("bench"),
		}
		if _, err := core.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
