package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// metricSpec names one reported figure and its unit. The lists below are
// the single source of the names BENCHMARK.json declares; a test keeps the
// two in step.
type metricSpec struct {
	name, unit string
}

// endToEndSpecs are the figures a user of iotls or iotlsd sees. Every run
// with tracing off prints all of them, on every workload.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"study_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"replay_rec_per_cpu_s", "1/s"},
	{"visible_p50_ms", "ms"},
	{"visible_tail_cpu_ms", "ms"},
	{"submit_tail_cpu_ms", "ms"},
	{"report_read_cpu_p50_ms", "ms"},
}

// studyStages are the timed core.Run stages, named by the core.Stage*
// constants so bench names and span names cannot drift apart.
var studyStages = []string{
	core.StageDataset, core.StageCorpus, core.StageIngest, core.StageSNIs,
	core.StageWorld, core.StageProbe, core.StageValidate,
}

// stageCounts maps a per-layer count name to the (stage, item) count the
// stage records on its span.
var stageCounts = []struct{ metric, stage, item string }{
	{"dataset.records", core.StageDataset, "records"},
	{"dataset.devices", core.StageDataset, "devices"},
	{"ingest.fingerprints", core.StageIngest, "fingerprints"},
	{"sni-filter.kept", core.StageSNIs, "kept"},
	{"world-build.servers", core.StageWorld, "servers"},
	{"probe.attempts", core.StageProbe, "attempts"},
	{"probe.retries", core.StageProbe, "retries"},
	{"chain-validate.records", core.StageValidate, "records"},
	{"chain-validate.unreachable", core.StageValidate, "unreachable"},
}

// reportTables are the individually timed analysis/report builder pairs.
var reportTables = []string{"figure11", "table11", "figure2", "figure12", "figure8", "adoption_curve"}

// perLayerSpecs are the traced run's figures: one module each.
func perLayerSpecs() []metricSpec {
	var specs []metricSpec
	for _, st := range studyStages {
		specs = append(specs,
			metricSpec{"core." + st + ".busy_s", "s"},
			metricSpec{"core." + st + ".alloc_mb", "MB"})
	}
	for _, c := range stageCounts {
		specs = append(specs, metricSpec{c.metric, "count"})
	}
	specs = append(specs,
		metricSpec{"dataset.drift_restamped", "count"},
		metricSpec{"dataset.hello_cache_hit_ratio", "ratio"},
		metricSpec{"ingest.memo_hit_ratio", "ratio"},
		metricSpec{"pki.trust_cache_hit_ratio", "ratio"},
		metricSpec{"report.client_tables.busy_s", "s"},
		metricSpec{"report.server_tables.busy_s", "s"},
		metricSpec{"report.render.busy_s", "s"},
		metricSpec{"report.bytes", "bytes"},
	)
	for _, t := range reportTables {
		specs = append(specs, metricSpec{"report." + t + ".busy_s", "s"})
	}
	return append(specs,
		metricSpec{"service.post_handler.p50_ms", "ms"},
		metricSpec{"analysis.delta.p50_ms", "ms"},
		metricSpec{"analysis.merge.first_ms", "ms"},
		metricSpec{"analysis.merge.last_ms", "ms"},
		metricSpec{"analysis.clone.first_ms", "ms"},
		metricSpec{"analysis.clone.last_ms", "ms"},
		metricSpec{"analysis.clone.alloc_kb", "kB"},
		metricSpec{"analysis.fingerprints", "count"},
		metricSpec{"service.snapshot_report.busy_ms", "ms"},
		metricSpec{"traced.unattributed_frac", "ratio"},
	)
}

// measured is one figure with the number of samples behind it.
type measured struct {
	value float64
	unit  string
	n     int
}

// result collects one run's figures, operation tallies and failures.
type result struct {
	specs     []metricSpec
	values    map[string]measured
	notes     []string // summary-only lines (validity figures)
	attempted int
	failed    int
	log       io.Writer
}

func newResult(specs []metricSpec, log io.Writer) *result {
	return &result{specs: specs, values: map[string]measured{}, log: log}
}

// set records a declared metric; an undeclared name is a bug.
func (r *result) set(name string, v float64, n int) {
	for _, s := range r.specs {
		if s.name == name {
			r.values[name] = measured{value: v, unit: s.unit, n: n}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// note prints a figure in the summary only: it judges the run's validity
// rather than the system, so it has no place in the compared metrics.
func (r *result) note(name string, v float64, unit string, n int) {
	r.notes = append(r.notes, fmt.Sprintf("%-36s %14.4f %-6s n=%d", name, v, unit, n))
}

// op tallies one attempted operation and whether it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: FAILED: %v\n", err)
	}
}

// gate tallies one correctness check.
func (r *result) gate(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check: "+format, args...))
}

// correct reports whether every operation and check passed and every
// declared metric was measured.
func (r *result) correct() bool {
	return r.failed == 0 && len(r.values) == len(r.specs)
}

// write prints the human summary to summary and the result object as the
// last line of out.
func (r *result) write(out, summary io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, s := range r.specs {
		m, ok := r.values[s.name]
		if !ok {
			fmt.Fprintf(summary, "%-36s %14s\n", s.name, "MISSING")
			continue
		}
		fmt.Fprintf(summary, "%-36s %14.4f %-6s n=%d\n", s.name, m.value, m.unit, m.n)
		metrics[s.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, l := range r.notes {
		fmt.Fprintln(summary, l)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
