//go:build poison

package serve

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestFramesPoisoned: under the poison tag every frame the pool hands out
// is NaN, fresh or recycled, so a β = 0 C word the engine read before
// writing would show in the result.
func TestFramesPoisoned(t *testing.T) {
	p := newFramePool(obs.NewRegistry())
	defer p.close()
	for _, what := range []string{"fresh", "recycled"} {
		f, err := p.get(100)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range f {
			if !math.IsNaN(v) {
				t.Fatalf("%s frame: word %d is %g, want NaN", what, i, v)
			}
			f[i] = float64(i)
		}
		p.put(f)
	}
}
