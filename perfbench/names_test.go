package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON checks that every workload and metric the
// binary knows is declared in BENCHMARK.json with the same unit, and the
// other way round.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	declared := map[string]bool{}
	for _, w := range bj.Workloads {
		declared[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a -workload", w.Name)
		}
	}
	for name := range workloads {
		if !declared[name] {
			t.Errorf("workload %q is missing from BENCHMARK.json", name)
		}
	}
	check := func(kind string, defs []metricDef, json map[string]string) {
		for _, d := range defs {
			if !validName.MatchString(d.name) {
				t.Errorf("%s metric %q does not match %s", kind, d.name, validName)
			}
			if u, ok := json[d.name]; !ok {
				t.Errorf("%s metric %q is missing from BENCHMARK.json", kind, d.name)
			} else if u != d.unit {
				t.Errorf("%s metric %q: unit %q here, %q in BENCHMARK.json", kind, d.name, d.unit, u)
			}
			delete(json, d.name)
		}
		for name := range json {
			t.Errorf("BENCHMARK.json %s metric %q is never printed", kind, name)
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

// TestPrintedLinesUseDeclaredNames checks the printed form: every metric
// line is "name value unit" with a declared name, and the last line is the
// JSON result.
func TestPrintedLinesUseDeclaredNames(t *testing.T) {
	r := newReport("digest")
	for _, d := range endToEnd {
		r.set(d.name, 1.5)
	}
	var out bytes.Buffer
	if err := r.print(&out, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 3 || units[f[0]] != f[2] || !validName.MatchString(f[0]) {
			t.Errorf("bad metric line %q", l)
		}
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("JSON has %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}

func TestPrintRejectsUnmeasuredEndToEndMetric(t *testing.T) {
	r := newReport("")
	for _, d := range endToEnd[1:] {
		r.set(d.name, 1)
	}
	if err := r.print(&bytes.Buffer{}, false); err == nil {
		t.Errorf("print accepted a report without %s", endToEnd[0].name)
	}
}
