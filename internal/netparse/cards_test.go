package netparse

import (
	"math"
	"strings"
	"testing"
)

const varyDeck = `* variation deck
V1 in 0 1.2
R1 in out 600
N1 out 0 rtdmod
CD out 0 10f
.model rtdmod RTD
.tran 0.5n 40n
.step R1 400 800 5
.step N1(A) 5e-5 2e-4 4 LOG
.mc 64 tran SEED=42 WORKERS=4
.vary N1(A) DEV=5%
.vary R* LOT=10% DIST=UNIFORM
.vary CD DEV=1f DIST=LOGNORMAL
.limit v(out) final 0.2 *
.limit v(out) max * 1.3
.end
`

func TestParseVariationCards(t *testing.T) {
	deck, err := Parse(varyDeck)
	if err != nil {
		t.Fatal(err)
	}
	if len(deck.Steps) != 2 {
		t.Fatalf("got %d step cards, want 2", len(deck.Steps))
	}
	s0 := deck.Steps[0]
	if s0.Elem != "R1" || s0.Param != "" || s0.From != 400 || s0.To != 800 || s0.Points != 5 || s0.Log {
		t.Errorf("step 0 parsed wrong: %+v", s0)
	}
	s1 := deck.Steps[1]
	if s1.Elem != "N1" || s1.Param != "A" || !s1.Log || s1.Points != 4 {
		t.Errorf("step 1 parsed wrong: %+v", s1)
	}

	if deck.MC == nil {
		t.Fatal("no .mc card parsed")
	}
	mc := deck.MC
	if mc.Trials != 64 || mc.Analysis != "tran" || mc.Seed != 42 || mc.Workers != 4 {
		t.Errorf(".mc parsed wrong: %+v", mc)
	}

	if len(deck.Varies) != 3 {
		t.Fatalf("got %d vary cards, want 3", len(deck.Varies))
	}
	v0 := deck.Varies[0]
	if v0.Elem != "N1" || v0.Param != "A" || v0.Sigma != 0.05 || !v0.Rel || v0.Lot || v0.Dist != "" {
		t.Errorf("vary 0 parsed wrong: %+v", v0)
	}
	v1 := deck.Varies[1]
	if v1.Elem != "R*" || v1.Sigma != 0.10 || !v1.Rel || !v1.Lot || v1.Dist != "UNIFORM" {
		t.Errorf("vary 1 parsed wrong: %+v", v1)
	}
	v2 := deck.Varies[2]
	if v2.Elem != "CD" || v2.Sigma != 1e-15 || v2.Rel || v2.Dist != "LOGNORMAL" {
		t.Errorf("vary 2 parsed wrong: %+v", v2)
	}

	if len(deck.Limits) != 2 {
		t.Fatalf("got %d limit cards, want 2", len(deck.Limits))
	}
	l0 := deck.Limits[0]
	if l0.Signal != "v(out)" || l0.Stat != "final" || l0.Lo != 0.2 || !math.IsInf(l0.Hi, 1) {
		t.Errorf("limit 0 parsed wrong: %+v", l0)
	}
	l1 := deck.Limits[1]
	if l1.Stat != "max" || !math.IsInf(l1.Lo, -1) || l1.Hi != 1.3 {
		t.Errorf("limit 1 parsed wrong: %+v", l1)
	}
}

func TestParseVariationCardErrors(t *testing.T) {
	base := "* t\nV1 in 0 1\nR1 in 0 1k\n%s\n.end\n"
	bad := []struct {
		card, want string
	}{
		{".step R1 1 2", ".step needs"},
		{".step R1 1 2 0", "bad .step numbers"},
		{".step (A) 1 2 3", "bad parameter reference"},
		{".step R1 1 2 3 WAT", "unknown .step keyword"},
		{".mc", ".mc needs"},
		{".mc 0", "bad .mc trial count"},
		{".mc 8 WAT", "unknown .mc keyword"},
		{".mc 8 SEED=-1", "bad SEED"},
		{".mc 8 SEED=1.5", "bad SEED"},
		{".mc 8 WORKERS=2.5", "bad WORKERS"},
		{".vary R1", ".vary needs"},
		{".vary R1 DEV=5% LOT=2%", "exactly one"},
		{".vary R1 DIST=GAUSS", "needs a DEV= or LOT="},
		{".vary R1 DEV=-5%", "negative tolerance"},
		{".vary R1 DEV=5% DIST=GAUSSIAN", `unknown distribution "GAUSSIAN"`},
		{".limit v(out) final 1", ".limit needs"},
		{".limit v(out) median 0 1", "bad .limit stat"},
		{".limit v(out) final 2 1", "out of order"},
	}
	for _, c := range bad {
		_, err := Parse(strings.Replace(base, "%s", c.card, 1))
		if err == nil {
			t.Errorf("%q: accepted", c.card)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not mention %q", c.card, err, c.want)
		}
	}
	// Duplicate .mc is rejected.
	if _, err := Parse(strings.Replace(base, "%s", ".mc 8\n.mc 9", 1)); err == nil || !strings.Contains(err.Error(), "duplicate .mc") {
		t.Errorf("duplicate .mc: got %v", err)
	}
}

func TestParseOptionsCard(t *testing.T) {
	deck, err := Parse("* t\nV1 in 0 1\nR1 in 0 1k\n.options partition gcouple=0.02 threads=4\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	o := deck.Options
	if o == nil || !o.Partition || o.GCouple != 0.02 || o.NoDormancy || o.Threads != 4 {
		t.Fatalf(".options parsed wrong: %+v", o)
	}
	// Multiple cards accumulate, SPICE style; .option is an alias.
	deck, err = Parse("* t\nV1 in 0 1\nR1 in 0 1k\n.options partition\n.option nodormancy\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	o = deck.Options
	if o == nil || !o.Partition || !o.NoDormancy || o.GCouple != 0 {
		t.Fatalf("accumulated .options parsed wrong: %+v", o)
	}
	// A deck without the card leaves Options nil.
	deck, err = Parse("* t\nV1 in 0 1\nR1 in 0 1k\n.end\n")
	if err != nil || deck.Options != nil {
		t.Fatalf("bare deck: err=%v options=%+v", err, deck.Options)
	}
	bad := []struct{ card, want string }{
		{".options", ".options needs"},
		{".options turbo", "unknown .options keyword"},
		{".options gcouple=2", "bad GCOUPLE"},
		{".options gcouple=0", "bad GCOUPLE"},
		{".options threads=-1", "bad THREADS"},
		{".options threads=two", "bad THREADS"},
	}
	for _, c := range bad {
		_, err := Parse("* t\nV1 in 0 1\nR1 in 0 1k\n" + c.card + "\n.end\n")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: got %v, want mention of %q", c.card, err, c.want)
		}
	}
}
