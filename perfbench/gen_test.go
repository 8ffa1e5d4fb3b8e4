package main

import (
	"math"
	"reflect"
	"testing"

	"nanosim"
	"nanosim/internal/netparse"
)

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	if pipelineDeck(7) != pipelineDeck(7) {
		t.Error("pipeline deck differs between two generations of one seed")
	}
	if inverterInput(7) != inverterInput(7) {
		t.Error("inverter input differs between two generations of one seed")
	}
	d1, c1 := serveInputs(7)
	d2, c2 := serveInputs(7)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(c1, c2) {
		t.Error("serve decks or schedule differ between two generations of one seed")
	}

	if pipelineDeck(7) == pipelineDeck(8) {
		t.Error("pipeline deck does not depend on the seed")
	}
	if inverterInput(7) == inverterInput(8) {
		t.Error("inverter input does not depend on the seed")
	}
	d3, c3 := serveInputs(8)
	if reflect.DeepEqual(d1, d3) || reflect.DeepEqual(c1, c3) {
		t.Error("serve decks or schedule do not depend on the seed")
	}
}

// within reports whether a and b differ by at most frac of a.
func within(a, b, frac float64) bool { return math.Abs(a-b) <= frac*math.Abs(a) }

// Another seed changes the inputs but not the amount of work, so the
// seeds a benchmark run draws measure the same thing.
func TestOtherSeedKeepsTheWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline deck twice")
	}
	const tol = 0.05
	var steps, evals [2]float64
	for i, seed := range []uint64{1, 2} {
		deck, err := netparse.Parse(pipelineDeck(seed))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := cliTranOptions(deck)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nanosim.Transient(deck.Circuit, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Blocks != pipeStages+2 {
			t.Errorf("seed %d: %d blocks, want %d", seed, res.Stats.Blocks, pipeStages+2)
		}
		steps[i], evals[i] = float64(res.Stats.Steps), float64(res.Stats.DeviceEvals)
	}
	if !within(steps[0], steps[1], tol) || !within(evals[0], evals[1], tol) {
		t.Errorf("pipeline work moved with the seed: steps %v, device evaluations %v", steps, evals)
	}

	var factors [2]float64
	for i, seed := range []uint64{1, 2} {
		ckt, opt, err := buildInverter(inverterInput(seed))
		if err != nil {
			t.Fatal(err)
		}
		res, err := nanosim.Vary(ckt, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials != opt.Trials || res.Failed != 0 || res.Passed == 0 || res.Passed == res.Trials {
			t.Errorf("seed %d: %d trials, %d failed, %d passed; want %d, none failed, yield inside (0,1)",
				seed, res.Trials, res.Failed, res.Passed, opt.Trials)
		}
		factors[i] = float64(res.Solve.FullFactor)
	}
	if !within(factors[0], factors[1], tol) {
		t.Errorf("mc-yield factorizations moved with the seed: %v", factors)
	}

	var perKind [2]map[string]int
	var primarySteps [2]float64
	for i, seed := range []uint64{1, 2} {
		decks, cycles := serveInputs(seed)
		perKind[i] = map[string]int{}
		for _, cycle := range cycles {
			for _, o := range cycle {
				perKind[i][decks[o.deck].kind]++
				if o.miss {
					perKind[i]["miss"]++
				}
			}
		}
		deck, err := netparse.Parse(decks[0].src)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := cliTranOptions(deck)
		if err != nil {
			t.Fatal(err)
		}
		res, err := nanosim.Transient(deck.Circuit, opt)
		if err != nil {
			t.Fatal(err)
		}
		primarySteps[i] = float64(res.Stats.Steps)
	}
	if !reflect.DeepEqual(perKind[0], perKind[1]) {
		t.Errorf("serve jobs per kind moved with the seed: %v vs %v", perKind[0], perKind[1])
	}
	if !within(primarySteps[0], primarySteps[1], tol) {
		t.Errorf("serve primary transient steps moved with the seed: %v", primarySteps)
	}
}

func TestServeMixShape(t *testing.T) {
	decks, cycles := serveInputs(1)
	kinds := map[string]bool{}
	for _, d := range decks {
		kinds[d.kind] = true
		if _, err := netparse.Parse(d.src); err != nil {
			t.Errorf("%s: %v", d.name, err)
		}
	}
	for _, k := range []string{"tran", "dc", "ac", "em", "set", "mc", "step"} {
		if !kinds[k] {
			t.Errorf("no %s deck in the mix", k)
		}
	}
	for c, cycle := range cycles {
		n, misses, primary := len(cycle), 0, 0
		for _, o := range cycle {
			if o.miss {
				misses++
			}
			if o.deck == 0 {
				primary++
			}
		}
		if misses != missesPerCycle || 2*primary <= n {
			t.Errorf("client %d: %d misses and %d primary ops in %d, want %d misses and a primary majority",
				c, misses, primary, n, missesPerCycle)
		}
	}
}
