package pipeline

import (
	"strings"
	"testing"

	"nanosim/internal/netparse"
)

const deckSrc = `* pipeline overrides
V1 in 0 0.8
R1 in d 600
N1 d 0 rtdmod
CD d 0 10f
IN 0 d DC 0 NOISE=1n
.model rtdmod RTD
.options partition gcouple=0.2 nodormancy threads=3
.tran 0.25n 5n
.em 5n 50 SEED=3
.mc 4 em SEED=9 WORKERS=5
.vary N1(A) DEV=5%
.step R1 400 800 3
.end
`

func plan(t *testing.T, src string, ovr Overrides) *Plan {
	t.Helper()
	deck, err := netparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(deck, ovr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOverridesScope pins where each override lands: a seed override
// reseeds single runs and the .mc batch but never a batch's job (its
// nominal run keeps the card seed), timing reaches single runs and
// batch jobs alike, and the .options card merges with forced
// partitioning.
func TestOverridesScope(t *testing.T) {
	seed := uint64(77)
	p := plan(t, deckSrc, Overrides{Seed: &seed, TStop: 2e-9, Threads: 2, Partition: true, GCouple: 0.5})
	if em := p.Single("em"); em.EM.Seed != 77 || em.EM.TStop != 2e-9 || !em.EM.RecordCurrents {
		t.Errorf("single em: %+v", em.EM)
	}
	mc, err := p.MC()
	if err != nil {
		t.Fatal(err)
	}
	if mc.Seed != 77 || mc.Job.Analysis != "em" || mc.Job.EM.Seed != 3 || mc.Job.EM.TStop != 2e-9 || mc.Workers != 5 {
		t.Errorf("mc: seed %d, job %s seed %d tstop %g, workers %d", mc.Seed, mc.Job.Analysis, mc.Job.EM.Seed, mc.Job.EM.TStop, mc.Workers)
	}
	step, err := p.Step()
	if err != nil {
		t.Fatal(err)
	}
	if step.Job.Analysis != "tran" || step.Job.Tran.TStop != 2e-9 || step.Job.Tran.Workers != 2 || step.Workers != 0 {
		t.Errorf("step: job %s tstop %g threads %d, workers %d", step.Job.Analysis, step.Job.Tran.TStop, step.Job.Tran.Workers, step.Workers)
	}
	if po := p.Partition(); po == nil || po.GCouple != 0.5 || !po.NoDormancy {
		t.Errorf("partition %+v, want gcouple 0.5 with the card's nodormancy", po)
	}
	if tr := plan(t, deckSrc, Overrides{}).Single("tran"); tr.Tran.Workers != 3 || tr.Tran.Partition.GCouple != 0.2 {
		t.Errorf("deck defaults: threads %d, partition %+v", tr.Tran.Workers, tr.Tran.Partition)
	}
	noCards := strings.Replace(deckSrc, ".options partition gcouple=0.2 nodormancy threads=3\n", "", 1)
	if po := plan(t, noCards, Overrides{}).Partition(); po != nil {
		t.Errorf("partition %+v without a card or override", po)
	}
	if _, err := New(plan(t, noCards, Overrides{}).deck, Overrides{Partition: true, GCouple: 2}); err == nil {
		t.Error("gcouple 2 accepted")
	}
}
