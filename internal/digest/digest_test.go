package digest

import (
	"math"
	"testing"

	"nanosim/internal/wave"
)

type counters struct{ Steps, Flops int }

// run builds a two-series run whose samples and counters the cases
// below perturb.
func run(v float64, flops int) Run {
	ws := wave.NewSet()
	a := wave.NewSeries("v(a)", 2)
	a.Append(0, 0)
	a.Append(1e-9, v)
	b := wave.NewSeries("v(b)", 1)
	b.Append(0, 0.5)
	ws.Add(a)
	ws.Add(b)
	return Run{
		Waves: ws, X: []float64{v, 0.5},
		Stats: counters{3, flops}, StatsNoFlops: counters{3, 0},
		Flops: counters{0, flops},
	}
}

// TestDigestSeesOneULP: moving one sample by one ULP changes both sums;
// changing only the flop accounting changes All and leaves Numbers.
func TestDigestSeesOneULP(t *testing.T) {
	base := Of(run(0.7, 10))
	if again := Of(run(0.7, 10)); again != base {
		t.Fatalf("digest not deterministic: %+v vs %+v", again, base)
	}
	ulp := Of(run(math.Nextafter(0.7, 1), 10))
	if ulp.Numbers == base.Numbers || ulp.All == base.All {
		t.Fatalf("a one-ULP sample move left a sum unchanged: %+v vs %+v", ulp, base)
	}
	flops := Of(run(0.7, 11))
	if flops.Numbers != base.Numbers || flops.All == base.All {
		t.Fatalf("a flop-only change: Numbers %v->%v, All %v->%v", base.Numbers, flops.Numbers, base.All, flops.All)
	}
}
