package strassen

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

func tracedRun(t *testing.T, m, k, n int, cfg *Config) *CountTracer {
	t.Helper()
	tr := NewCountTracer()
	cfg.Tracer = tr
	rng := rand.New(rand.NewSource(int64(m*7 + k*5 + n*3)))
	a := matrix.NewRandom(m, k, rng)
	b := matrix.NewRandom(k, n, rng)
	c := matrix.NewDense(m, n)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, m, n, k, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	return tr
}

func TestTraceBaseOnly(t *testing.T) {
	tr := tracedRun(t, 10, 10, 10, &Config{Kernel: blas.NaiveKernel{}, Criterion: Never{}})
	if tr.Count("base") != 1 || tr.Total() != 1 {
		t.Fatalf("want exactly one base event: %s", tr)
	}
	if tr.MaxDepth() != 0 {
		t.Fatal("depth should be 0")
	}
}

func TestTraceOneLevelEven(t *testing.T) {
	skipIfAlgoPinned(t)
	tr := tracedRun(t, 32, 32, 32, &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 1})
	if tr.Count("strassen1") != 1 {
		t.Fatalf("want 1 schedule event: %s", tr)
	}
	if tr.Count("base") != 7 {
		t.Fatalf("want 7 base products: %s", tr)
	}
	if tr.Count("peel") != 0 {
		t.Fatalf("no peeling on even dims: %s", tr)
	}
	if tr.MaxDepth() != 1 {
		t.Fatalf("max depth: %s", tr)
	}
}

func TestTraceOddFixups(t *testing.T) {
	skipIfAlgoPinned(t)
	tr := tracedRun(t, 33, 33, 33, &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 1})
	if tr.Count("peel") != 1 {
		t.Fatalf("want a peel event: %s", tr)
	}
	for _, fix := range []string{"fixup-ger", "fixup-col", "fixup-row"} {
		if tr.Count(fix) != 1 {
			t.Fatalf("want one %s: %s", fix, tr)
		}
	}
}

func TestTraceOnlyKOdd(t *testing.T) {
	skipIfAlgoPinned(t)
	tr := tracedRun(t, 32, 33, 32, &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 1})
	if tr.Count("fixup-ger") != 1 || tr.Count("fixup-col") != 0 || tr.Count("fixup-row") != 0 {
		t.Fatalf("k-odd should fire only the rank-one fixup: %s", tr)
	}
}

func TestTraceDepthTwo(t *testing.T) {
	skipIfAlgoPinned(t)
	tr := tracedRun(t, 64, 64, 64, &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 2})
	if tr.Count("base") != 49 {
		t.Fatalf("want 49 base products at depth 2: %s", tr)
	}
	if tr.Count("strassen1") != 8 { // 1 + 7
		t.Fatalf("want 8 schedule events: %s", tr)
	}
	if tr.MaxDepth() != 2 {
		t.Fatalf("max depth: %s", tr)
	}
}

func TestTraceSchedulesNamed(t *testing.T) {
	skipIfAlgoPinned(t)
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 1, Schedule: ScheduleOriginal}
	tr := tracedRun(t, 16, 16, 16, cfg)
	if tr.Count("original") != 1 {
		t.Fatalf("want original event: %s", tr)
	}
	// β≠0 path labels strassen2 under auto.
	tr2 := NewCountTracer()
	cfg2 := &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 1, Tracer: tr2}
	rng := rand.New(rand.NewSource(5))
	a := matrix.NewRandom(16, 16, rng)
	b := matrix.NewRandom(16, 16, rng)
	c := matrix.NewRandom(16, 16, rng)
	DGEFMM(cfg2, blas.NoTrans, blas.NoTrans, 16, 16, 16, 1, a.Data, a.Stride, b.Data, b.Stride, 0.5, c.Data, c.Stride)
	if tr2.Count("strassen2") != 1 {
		t.Fatalf("β≠0 should trace strassen2: %s", tr2)
	}
}

func TestTraceParallelEvents(t *testing.T) {
	skipIfAlgoPinned(t)
	_, rt4 := testRuntimes()
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 1, Sched: rt4}
	tr := tracedRun(t, 32, 32, 32, cfg)
	if tr.Count("strassen1") != 1 {
		t.Fatalf("want the level the sequential call runs: %s", tr)
	}
	if tr.Count("base") != 7 {
		t.Fatalf("want 7 base products: %s", tr)
	}
}

func TestLogTracerOrderSequential(t *testing.T) {
	skipIfAlgoPinned(t)
	lt := &LogTracer{}
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Always{}, MaxDepth: 1, Tracer: lt}
	rng := rand.New(rand.NewSource(6))
	a := matrix.NewRandom(16, 16, rng)
	b := matrix.NewRandom(16, 16, rng)
	c := matrix.NewDense(16, 16)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, 16, 16, 16, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
	if len(lt.Events) != 8 { // 1 schedule + 7 base
		t.Fatalf("want 8 events, got %d", len(lt.Events))
	}
	if lt.Events[0].Action != "strassen1" || lt.Events[0].Depth != 0 {
		t.Fatalf("first event: %+v", lt.Events[0])
	}
	for _, e := range lt.Events[1:] {
		if e.Action != "base" || e.Depth != 1 || e.M != 8 {
			t.Fatalf("unexpected event %+v", e)
		}
	}
}

func TestCountTracerString(t *testing.T) {
	tr := NewCountTracer()
	tr.Event(TraceEvent{Depth: 2, Action: "base"})
	tr.Event(TraceEvent{Depth: 1, Action: "peel"})
	s := tr.String()
	if !strings.Contains(s, "base=1") || !strings.Contains(s, "peel=1") || !strings.Contains(s, "depth≤2") {
		t.Fatalf("tracer string: %q", s)
	}
}

func TestNoTracerNoEvents(t *testing.T) {
	// Absence of a tracer must not panic anywhere on a busy path.
	cfg := &Config{Kernel: blas.NaiveKernel{}, Criterion: Simple{Tau: 4}}
	rng := rand.New(rand.NewSource(7))
	a := matrix.NewRandom(33, 21, rng)
	b := matrix.NewRandom(21, 19, rng)
	c := matrix.NewDense(33, 19)
	DGEFMM(cfg, blas.NoTrans, blas.NoTrans, 33, 19, 21, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride)
}
