package analysis

import (
	"sync"
	"testing"

	"nanosim/internal/core"
	"nanosim/internal/flop"
	"nanosim/internal/hier/hiertest"
	"nanosim/internal/linsolve"
	"nanosim/internal/netparse"
	"nanosim/internal/part"
)

// TestTransientKeepsCallerSolver pins the routing rule: a partitioned
// run with a caller-supplied Solver stays on the flat engine, so every
// block solves on a solver from the caller's factory. (hier would swap
// the repeated blocks' solvers for clones of a donor's template,
// leaving the caller's idle.)
func TestTransientKeepsCallerSolver(t *testing.T) {
	deck, err := netparse.Parse(hiertest.PipelineDeck(8, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var made []linsolve.Solver
	factory := func(n int, fc *flop.Counter) linsolve.Solver {
		s := linsolve.Auto(n, fc)
		mu.Lock()
		made = append(made, s)
		mu.Unlock()
		return s
	}
	res, err := Transient(deck.Circuit, core.Options{TStop: 1e-9, Partition: &part.Options{}, Solver: factory})
	if err != nil {
		t.Fatal(err)
	}
	idle := 0
	for _, s := range made {
		if r, ok := s.(linsolve.Refactorable); ok {
			if st := r.SolveStats(); st.FullFactor+st.NumericRefactor == 0 {
				idle++
			}
		}
	}
	if res.Stats.Blocks < 8 || len(made) < res.Stats.Blocks || idle > 0 {
		t.Fatalf("%d blocks, %d solvers from the caller's factory, %d of them idle; want every block on its own", res.Stats.Blocks, len(made), idle)
	}
}
