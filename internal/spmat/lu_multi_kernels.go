package spmat

import "nanosim/internal/flop"

// solveMultiCplx is the SolveMulti body: one factorization, k
// right-hand sides. The right-hand-side loops are the innermost loops,
// so structural index data (lRows/uRows .j, rowPerm, invColPerm) is
// read once per k vectors; the forward pass's zero skip is taken per
// right-hand side exactly as solveCplx takes it, so RHS c's
// floating-point sequence equals solveCplx's on b_c alone. Any change
// here must be checked against solveCplx for per-RHS order.
func solveMultiCplx(f *LUOf[complex128], b, x []complex128, k int, fc *flop.Counter) {
	n := f.n
	yM := f.yMul[:n*k]
	zM := f.zMul[:n*k]
	for c := 0; c < k; c++ {
		bc := b[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			yM[i*k+c] = bc[i]
		}
	}
	muls, adds, divs := 0, 0, 0
	for m := 0; m < n; m++ {
		yb := f.rowPerm[m] * k
		l := f.lRows[m]
		for i := range l {
			ev := l[i].v
			jb := l[i].j * k
			for c := 0; c < k; c++ {
				yk := yM[yb+c]
				if yk == 0 {
					continue
				}
				yM[jb+c] -= ev * yk
				muls++
				adds++
			}
		}
	}
	sRow := f.sMul[:k]
	for m := n - 1; m >= 0; m-- {
		yb := f.rowPerm[m] * k
		for c := 0; c < k; c++ {
			sRow[c] = yM[yb+c]
		}
		u := f.uRows[m]
		for i := range u {
			ev := u[i].v
			zb := f.invColPerm[u[i].j] * k
			for c := 0; c < k; c++ {
				sRow[c] -= ev * zM[zb+c]
			}
			muls += k
			adds += k
		}
		d := f.uDiag[m]
		zb := m * k
		for c := 0; c < k; c++ {
			zM[zb+c] = sRow[c] / d
		}
		divs += k
	}
	for m := 0; m < n; m++ {
		cp := f.colPerm[m]
		zb := m * k
		for c := 0; c < k; c++ {
			x[c*n+cp] = zM[zb+c]
		}
	}
	fc.Mul(muls)
	fc.Add(adds)
	fc.Div(divs)
	for c := 0; c < k; c++ {
		fc.Solve()
	}
}
