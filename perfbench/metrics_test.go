package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile declares the benchmark's workloads and metrics, at the
// repository root.
const benchmarkFile = "../BENCHMARK.json"

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs()...) {
		if !metricName.MatchString(s.name) {
			t.Errorf("metric name %q does not match %s", s.name, metricName)
		}
		if seen[s.name] {
			t.Errorf("metric name %q used twice", s.name)
		}
		seen[s.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, metricName)
		}
	}
}

func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclared(t)
	var e2e, layer []metricSpec
	for _, m := range d.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range d.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	sameSpecs(t, "end_to_end", e2e, endToEndSpecs)
	sameSpecs(t, "per_layer", layer, perLayerSpecs())
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("declared workloads %v, implemented %d", names, len(workloads))
	}
}

func sameSpecs(t *testing.T, what string, got, want []metricSpec) {
	t.Helper()
	gotSet := map[metricSpec]bool{}
	for _, s := range got {
		gotSet[s] = true
	}
	wantSet := map[metricSpec]bool{}
	for _, s := range want {
		wantSet[s] = true
		if !gotSet[s] {
			t.Errorf("%s: printed metric %s (%s) is not declared", what, s.name, s.unit)
		}
	}
	for _, s := range got {
		if !wantSet[s] {
			t.Errorf("%s: declared metric %s (%s) is never printed", what, s.name, s.unit)
		}
	}
}

// lastLine decodes the result object a run prints last.
func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return obj
}

func TestResultPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEndSpecs, perLayerSpecs()} {
		r := newResult(specs, io.Discard)
		r.op(nil)
		for _, s := range specs {
			r.set(s.name, 1.5, 1)
		}
		var out bytes.Buffer
		if err := r.write(&out, io.Discard); err != nil {
			t.Fatal(err)
		}
		obj := lastLine(t, out.String())
		if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
			t.Fatalf("result keys: %v", obj)
		}
		var metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var printed []metricSpec
		for name, m := range metrics {
			printed = append(printed, metricSpec{name, m.Unit})
		}
		sameSpecs(t, "result", printed, specs)
		if string(obj["correct"]) != "true" {
			t.Errorf("complete result not correct: %s", obj["correct"])
		}
	}
}

func TestResultIsIncorrectWhenAMetricOrCheckIsMissing(t *testing.T) {
	r := newResult(endToEndSpecs, io.Discard)
	r.op(nil)
	r.set("setup_s", 1, 1)
	if r.correct() {
		t.Error("result with missing metrics reported correct")
	}
	for _, s := range endToEndSpecs {
		r.set(s.name, 1, 1)
	}
	r.gate(false, "injected")
	if r.correct() || r.failed != 1 || r.attempted != 2 {
		t.Errorf("after a failed gate: correct=%v failed=%d attempted=%d", r.correct(), r.failed, r.attempted)
	}
}
