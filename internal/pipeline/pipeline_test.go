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
// batch jobs alike, the .options card merges with forced partitioning,
// and threads size AC chunks and .set map points.
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
	if step.Job.Analysis != "tran" || step.Job.Tran.TStop != 2e-9 || step.Workers != 0 {
		t.Errorf("step: job %s tstop %g, workers %d", step.Job.Analysis, step.Job.Tran.TStop, step.Workers)
	}
	ac, setMap := netparse.Analysis{Kind: "ac"}, netparse.Analysis{Kind: "setmap"}
	if got := p.Card(ac).AC.Workers; got != 2 {
		t.Errorf("ac workers %d, want the override's 2 threads", got)
	}
	if got := plan(t, deckSrc, Overrides{}).Card(setMap).Map.Workers; got != 3 {
		t.Errorf("set map workers %d, want the card's 3 threads", got)
	}
	if po := p.Partition(); po == nil || po.GCouple != 0.5 || !po.NoDormancy {
		t.Errorf("partition %+v, want gcouple 0.5 with the card's nodormancy", po)
	}
	if tr := plan(t, deckSrc, Overrides{}).Single("tran"); tr.Tran.Partition.GCouple != 0.2 {
		t.Errorf("deck defaults: partition %+v", tr.Tran.Partition)
	}
	noCards := strings.Replace(deckSrc, ".options partition gcouple=0.2 nodormancy threads=3\n", "", 1)
	if po := plan(t, noCards, Overrides{}).Partition(); po != nil {
		t.Errorf("partition %+v without a card or override", po)
	}
	if _, err := New(plan(t, noCards, Overrides{}).deck, Overrides{Partition: true, GCouple: 2}); err == nil {
		t.Error("gcouple 2 accepted")
	}
}

// TestRunnableRefusesJunctions: only the single-electron kinds run on a
// deck with tunnel junctions; every other kind, and a batch whose
// trials run one, is refused when the plan resolves it.
func TestRunnableRefusesJunctions(t *testing.T) {
	const deck = `* junctions
Vdd vdd 0 0.3
RL vdd d 1meg
J1 d m tj
J2 m 0 tj
.model tj TJ C=1a R=1meg
.island m
.tran 0.2n 4n
.set tran 0.2n 4n
.vary RL DEV=5%
.mc 4 op
.end
`
	p := plan(t, deck, Overrides{})
	for _, kind := range []string{"dcop", "tran", ""} {
		if _, err := p.Kind(kind); err == nil || !strings.Contains(err.Error(), "tunnel junction J1") {
			t.Errorf("Kind(%q): %v, want a refusal naming J1", kind, err)
		}
	}
	if kind, err := p.Kind("set"); kind != "set" || err != nil {
		t.Errorf("Kind(set) = %q, %v", kind, err)
	}
	if _, err := p.MC(); err == nil || !strings.Contains(err.Error(), "mc job with .op trials") {
		t.Errorf("MC() with op trials: %v", err)
	}
	if err := p.Runnable("setmap"); err != nil {
		t.Errorf("Runnable(setmap): %v", err)
	}
	if err := plan(t, deckSrc, Overrides{}).Runnable("op"); err != nil {
		t.Errorf("Runnable(op) without junctions: %v", err)
	}
}
