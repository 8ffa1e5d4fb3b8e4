package main

import (
	"bytes"
	"errors"
	"testing"

	"nanosim"
)

// An op whose output differs from the first op's counts as failed, so
// a wrong answer raises fail_frac even when every call returned.
func TestInjectedBadOpRaisesFailFrac(t *testing.T) {
	in := inverterInput(1)
	in.trials = 24
	ckt, opt, err := buildInverter(in)
	if err != nil {
		t.Fatal(err)
	}
	var ops tally
	ref := newRefs()
	for i := 0; i < 4; i++ {
		res, err := nanosim.Vary(ckt, opt)
		if i == 2 && err == nil {
			res.Signals[0].Final[5] += 1e-12 // the injected wrong answer
		}
		ops.add(checkYield(res, err, opt, ref))
	}
	if ops.attempted != 4 || ops.failed != 1 || ops.failFrac() != 0.25 {
		t.Errorf("mc-yield: %d attempted, %d failed, fail_frac %g; want 4, 1, 0.25 (first error %v)",
			ops.attempted, ops.failed, ops.failFrac(), ops.first)
	}

	// A batch short of trials fails even before the comparison.
	res, err := nanosim.Vary(ckt, opt)
	if err != nil {
		t.Fatal(err)
	}
	res.Trials--
	if checkYield(res, nil, opt, newRefs()) == nil {
		t.Error("a batch short of trials passed its check")
	}

	// The CLI check: the first output is the reference, a changed digit
	// or a failed exit is a failed op.
	out := []byte("== .tran ==\nsteps=10 rejected=1 solves=11\n")
	cli := newRefs()
	var cliOps tally
	cliOps.add(checkCLI(cliRun{stdout: out}, nil, cli))
	cliOps.add(checkCLI(cliRun{stdout: bytes.Replace(out, []byte("10"), []byte("12"), 1)}, nil, cli))
	cliOps.add(checkCLI(cliRun{stdout: out}, errors.New("exit status 1"), cli))
	cliOps.add(checkCLI(cliRun{stdout: out}, nil, cli))
	if cliOps.failed != 2 || cliOps.failFrac() != 0.5 {
		t.Errorf("CLI: %d of %d failed, want 2 of 4", cliOps.failed, cliOps.attempted)
	}

	// The serve check: a changed number in a result document.
	doc := []byte(`{"kind":"tran","tran":{"steps":5,"final":{"v(d)":0.25}}}`)
	srv := newRefs()
	for i, body := range [][]byte{doc, bytes.Replace(doc, []byte("0.25"), []byte("0.26"), 1)} {
		canon, err := canonicalResult("tran", body)
		if err == nil {
			err = srv.match("tran result", canon)
		}
		if (err != nil) != (i == 1) {
			t.Errorf("serve result %d: check error %v", i, err)
		}
	}
}
