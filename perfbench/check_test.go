package main

import (
	"math"
	"testing"
	"time"
)

func TestCorruptedResultCountsAsFailure(t *testing.T) {
	for _, tc := range []struct {
		name    string
		spec    matSpec
		corrupt func(float64) float64
		wrong   bool
	}{
		{"sequential off by 1e-3", matSpec{n: 96, alpha: 1}, func(v float64) float64 { return v + 1e-3 }, true},
		// One ulp is inside the Higham bound: not a failure against DGEMM…
		{"sequential off by one ulp", matSpec{n: 96, alpha: 1}, func(v float64) float64 { return math.Nextafter(v, 2) }, false},
		// …but the parallel result must match the one-worker result exactly.
		{"parallel off by one ulp", matSpec{n: 96, alpha: 1, parallel: true}, func(v float64) float64 { return math.Nextafter(v, 2) }, true},
		{"general beta off by 1e-3", matSpec{n: 95, alpha: 1.0 / 3, beta: 0.25}, func(v float64) float64 { return v - 1e-3 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newMatRun(tc.spec, 7)
			defer m.sub.close()
			run := m.sub.run
			m.sub.run = func(c []float64) {
				run(c)
				c[len(c)/2] = tc.corrupt(c[len(c)/2])
			}
			m.measure(20 * time.Millisecond)
			if m.attempted == 0 {
				t.Fatal("no calls attempted")
			}
			want := 0
			if tc.wrong {
				want = m.attempted
			}
			if m.wrong != want {
				t.Errorf("wrong = %d of %d attempted, want %d", m.wrong, m.attempted, want)
			}
		})
	}
}

func TestCorruptedResponseCountsAsFailure(t *testing.T) {
	spec := serveMix
	spec.variants = 1
	in := genServeInputs(spec, 100*time.Millisecond, 7)
	svc := startService(spec)
	defer svc.close()
	w := &serveRun{spec: spec, in: in, svc: svc}

	good := in.reqs[0][0]
	bad := good
	bad.want = append([]float64(nil), good.want...)
	bad.want[0] = math.Nextafter(bad.want[0], 2)
	w.tally(svc.issue(0, &good))
	w.tally(svc.issue(0, &bad))
	if w.attempted != 2 || w.failed != 1 || w.wrong != 1 {
		t.Errorf("attempted/failed/wrong = %d/%d/%d, want 2/1/1", w.attempted, w.failed, w.wrong)
	}
}
