package main

import (
	"bytes"
	"testing"
	"time"
)

// toyWorkloads mirror the four workloads at sizes that run in a fraction
// of a second: n = 512 still recurses one level (511 peels), and the serve
// mix keeps its shapes at a lower rate.
var toyWorkloads = map[string]func(opts) (*report, error){
	"square_b0":  func(o opts) (*report, error) { return runMatrix(matSpec{n: 512, alpha: 1}, o) },
	"odd_update": func(o opts) (*report, error) { return runMatrix(matSpec{n: 511, alpha: 1.0 / 3, beta: 0.25}, o) },
	"par_square": func(o opts) (*report, error) { return runMatrix(matSpec{n: 512, alpha: 1, parallel: true}, o) },
	"serve_mix": func(o opts) (*report, error) {
		s := serveMix
		s.rate, s.variants = 200, 2
		return runServe(s, o)
	},
}

// TestSmokeAllWorkloads runs every workload untraced and traced at toy
// sizes and checks that each prints every metric, fails nothing, and that
// the traced accounting holds: no phase double counted, workspace equal to
// the plan.
func TestSmokeAllWorkloads(t *testing.T) {
	for name := range workloads {
		run, ok := toyWorkloads[name]
		if !ok {
			t.Fatalf("no toy version of workload %s", name)
		}
		for _, traced := range []bool{false, true} {
			r, err := run(opts{seed: 3, dur: 300 * time.Millisecond, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if r.attempted == 0 || r.failed != 0 || r.wrong != 0 {
				t.Errorf("%s traced=%v: attempted/failed/wrong = %d/%d/%d", name, traced, r.attempted, r.failed, r.wrong)
			}
			if traced {
				if v := r.values["obs.residual.ratio"]; v < 0 {
					t.Errorf("%s: obs.residual.ratio = %g < 0: a phase is double counted", name, v)
				}
				if v := r.values["arena.plan_ratio"]; v != 1 {
					t.Errorf("%s: arena.plan_ratio = %g, want 1", name, v)
				}
				if r.spans == nil || r.spans.Len() == 0 {
					t.Errorf("%s: the traced run recorded no spans", name)
				}
			} else {
				rss, err := peakRSSMB()
				if err != nil {
					t.Fatal(err)
				}
				r.set("rss_peak_mb", rss)
			}
			if err := r.print(&bytes.Buffer{}, traced); err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := genMatInputs(64, 5).digest, genMatInputs(64, 5).digest; a != b {
		t.Errorf("matrix digests differ for one seed: %s vs %s", a, b)
	}
	if a, b := genMatInputs(64, 5).digest, genMatInputs(64, 6).digest; a == b {
		t.Error("matrix digests agree across seeds")
	}
	d := time.Second
	if a, b := genServeInputs(serveMix, d, 5).digest, genServeInputs(serveMix, d, 5).digest; a != b {
		t.Errorf("serve digests differ for one seed: %s vs %s", a, b)
	}
	if a, b := genServeInputs(serveMix, d, 5).digest, genServeInputs(serveMix, d, 6).digest; a == b {
		t.Error("serve digests agree across seeds")
	}
}
