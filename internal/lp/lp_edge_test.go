package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLargeCoefficientSpread(t *testing.T) {
	// Geo-I-style rows mix unit and e^{εd} ≈ 10⁴ coefficients; the
	// equilibration must keep the solve exact.
	p := NewProblem(3)
	p.SetObjective([]float64{1, 2, 3})
	p.AddConstraint([]Term{{0, 1}, {1, 1}, {2, 1}}, EQ, 1)
	p.AddConstraint([]Term{{0, 1}, {1, -28000}}, LE, 0)
	p.AddConstraint([]Term{{1, 1}, {0, -28000}}, LE, 0)
	sol := solveOK(t, p)
	// Optimum pushes mass to x0 (cheapest) subject to coupling.
	if sol.X[0] < 0.9 {
		t.Fatalf("x = %v, expected x0 ≈ 1", sol.X)
	}
}

func TestEqualityOnlyDegenerate(t *testing.T) {
	// Multiple redundant equalities (rank-deficient): phase 1 must keep
	// an artificial basic at zero and still solve.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, EQ, 2)
	p.AddConstraint([]Term{{0, 2}, {1, 2}}, EQ, 4) // redundant
	p.AddConstraint([]Term{{0, 1}}, GE, 0.5)
	sol := solveOK(t, p)
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("objective %v, want 2", sol.Objective)
	}
}

func TestZeroRHSConeWithBox(t *testing.T) {
	// The pricing subproblem shape: homogeneous rows plus a unit box,
	// negative costs pushing into the cone.
	p := NewProblem(4)
	p.SetObjective([]float64{-1, -0.5, 0.1, 0.2})
	f := math.Exp(3 * 0.2)
	for i := 0; i < 3; i++ {
		p.AddConstraint([]Term{{i, 1}, {i + 1, -f}}, LE, 0)
		p.AddConstraint([]Term{{i + 1, 1}, {i, -f}}, LE, 0)
	}
	for i := 0; i < 4; i++ {
		p.AddConstraint([]Term{{i, 1}}, LE, 1)
	}
	sol := solveOK(t, p)
	if sol.X[0] < 0.99 {
		t.Fatalf("x0 = %v, want 1 (most negative cost)", sol.X[0])
	}
	// Chain constraints force neighbours above x0/f.
	if sol.X[1] < 1/f-1e-9 {
		t.Fatalf("x1 = %v violates chained lower bound %v", sol.X[1], 1/f)
	}
}

func TestMaxIterReportsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewProblem(20)
	for j := 0; j < 20; j++ {
		p.SetObjectiveCoeff(j, rng.NormFloat64())
	}
	for i := 0; i < 15; i++ {
		terms := make([]Term, 20)
		for j := range terms {
			terms[j] = Term{j, rng.NormFloat64()}
		}
		p.AddConstraint(terms, LE, 1+rng.Float64())
	}
	sol, err := Solve(p, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal && sol.Iterations > 1 {
		t.Fatalf("exceeded MaxIter: %d iterations", sol.Iterations)
	}
}

func TestDualSignsGEBinding(t *testing.T) {
	// For a min problem, binding >= rows carry nonnegative duals.
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]Term{{0, 1}}, GE, 3)
	sol := solveOK(t, p)
	if sol.Duals[0] < -1e-9 {
		t.Fatalf("dual %v, want >= 0 for binding GE row", sol.Duals[0])
	}
	if math.Abs(sol.Duals[0]-1) > 1e-6 {
		t.Fatalf("dual %v, want 1 (marginal cost)", sol.Duals[0])
	}
}

func TestIPMInfeasibleReportsLimit(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective([]float64{1})
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}}, GE, 2)
	sol, err := SolveIPM(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status == Optimal {
		t.Fatalf("IPM claimed optimal on an infeasible problem (x=%v)", sol.X)
	}
}

func TestIPMTransportation(t *testing.T) {
	// Balanced transportation problem (EQ rows both sides).
	const k = 5
	p := NewProblem(k * k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			p.SetObjectiveCoeff(i*k+j, float64((i+1)*(j+1)))
		}
	}
	for i := 0; i < k; i++ {
		terms := make([]Term, k)
		for j := 0; j < k; j++ {
			terms[j] = Term{i*k + j, 1}
		}
		p.AddConstraint(terms, EQ, 1)
	}
	for j := 0; j < k; j++ {
		terms := make([]Term, k)
		for i := 0; i < k; i++ {
			terms[i] = Term{i*k + j, 1}
		}
		p.AddConstraint(terms, EQ, 1)
	}
	si := solveIPMOK(t, p)
	sx, err := Solve(p, Options{})
	if err != nil || sx.Status != Optimal {
		t.Fatalf("simplex: %v %v", err, sx.Status)
	}
	if math.Abs(si.Objective-sx.Objective) > 1e-4*(1+sx.Objective) {
		t.Fatalf("IPM %v != simplex %v", si.Objective, sx.Objective)
	}
}

func TestSolutionIndependentOfTermOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	build := func(shuffle bool) *Problem {
		p := NewProblem(4)
		p.SetObjective([]float64{3, 1, 4, 1})
		rows := [][]Term{
			{{0, 2}, {1, 1}, {3, 0.5}},
			{{1, 1}, {2, 3}},
			{{0, 1}, {2, 1}, {3, 1}},
		}
		for _, terms := range rows {
			ts := append([]Term(nil), terms...)
			if shuffle {
				rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			}
			p.AddConstraint(ts, GE, 2)
		}
		return p
	}
	a := solveOK(t, build(false))
	b := solveOK(t, build(true))
	if math.Abs(a.Objective-b.Objective) > 1e-9 {
		t.Fatalf("term order changed the optimum: %v vs %v", a.Objective, b.Objective)
	}
}

// xorshift64 is the deterministic generator used by the randomized
// Geo-I instance tests.
type xorshift64 uint64

func (r *xorshift64) next() float64 {
	v := uint64(*r)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*r = xorshift64(v)
	return float64(v%(1<<20)) / (1 << 20)
}

func TestSolveSingletonEQ(t *testing.T) {
	// min x0 + x1  s.t.  2·x1 = 4,  x0 + x1 ≥ 3.
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.AddConstraint([]Term{{1, 2}}, EQ, 4)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 3)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %v %v", sol, err)
	}
	if math.Abs(sol.Objective-3) > 1e-9 {
		t.Fatalf("objective %v, want 3", sol.Objective)
	}
	if math.Abs(sol.X[1]-2) > 1e-12 || math.Abs(sol.X[0]-1) > 1e-9 {
		t.Fatalf("X = %v, want [1 2]", sol.X)
	}
	// Dual stationarity of the fixed column: c_1 − y·A_1 = 0.
	rc := 1.0 - 2*sol.Duals[0] - sol.Duals[1]
	if math.Abs(rc) > 1e-9 {
		t.Fatalf("dual violates stationarity: rc = %v (duals %v)", rc, sol.Duals)
	}
}

func TestSolveInfeasibleSingleton(t *testing.T) {
	p := NewProblem(2)
	p.AddConstraint([]Term{{0, 1}}, EQ, -1) // x0 = −1 with x ≥ 0
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 5)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("Solve = %v, %v; want Infeasible", sol, err)
	}
}

func TestSolveRedundantAndDuplicateRows(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective([]float64{1, 1})
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 2)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, GE, 1)  // duplicate, looser
	p.AddConstraint([]Term{{0, 1}}, GE, -3)         // redundant vs x ≥ 0
	p.AddConstraint([]Term{{0, -2}}, LE, 1)         // redundant vs x ≥ 0
	p.AddConstraint(nil, LE, 0)                     // empty, satisfied
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 10) // kept
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("solve: %+v, %v; want objective 2", sol, err)
	}
	// Redundant rows carry the dual 0 that certifies their redundancy.
	for _, i := range []int{1, 2, 3, 4} {
		if sol.Duals[i] != 0 {
			t.Fatalf("dual of redundant row %d = %v, want 0", i, sol.Duals[i])
		}
	}
}

func TestSolveBoundRedundantRow(t *testing.T) {
	// x0 ≤ 1 and x1 ≤ 1 imply x0 + x1 ≤ 3.
	p := NewProblem(2)
	p.SetObjective([]float64{-1, -2})
	p.AddConstraint([]Term{{0, 1}}, LE, 1)
	p.AddConstraint([]Term{{1, 1}}, LE, 1)
	p.AddConstraint([]Term{{0, 1}, {1, 1}}, LE, 3)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective+3) > 1e-9 {
		t.Fatalf("solve: %+v, %v; want objective -3", sol, err)
	}
}

func TestSolveEmptyAndDuplicateColumns(t *testing.T) {
	// x2 appears in no row (cost ≥ 0 → stays at 0); x3 duplicates x0
	// with a higher cost (stays at 0, mass goes to x0).
	p := NewProblem(4)
	p.SetObjective([]float64{1, 1, 2, 5})
	p.AddConstraint([]Term{{0, 1}, {1, 1}, {3, 1}}, GE, 2)
	p.AddConstraint([]Term{{0, 2}, {1, -1}, {3, 2}}, LE, 8)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("solve: %+v, %v; want objective 2", sol, err)
	}
	if sol.X[2] != 0 || sol.X[3] != 0 {
		t.Fatalf("dominated columns nonzero: %v", sol.X)
	}
}

func TestSolveUnboundedTrivial(t *testing.T) {
	// The only row fixes x0; x1 is then an empty column with negative
	// cost on a feasible problem — Unbounded.
	p := NewProblem(2)
	p.SetObjective([]float64{1, -1})
	p.AddConstraint([]Term{{0, 1}}, EQ, 2)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != Unbounded {
		t.Fatalf("Solve = %+v, %v; want Unbounded", sol, err)
	}
}

// geoIInstance builds a randomized pricing-shaped Geo-I LP: K variables
// z with pair rows z_a − f·z_b ≤ 0 (f = e^{εd} ≥ 1) along a random path
// structure, unit-box rows z_i ≤ 1, a random objective, and injected
// degeneracies — a singleton equality, duplicate and redundant rows,
// and an empty column.
func geoIInstance(rng *xorshift64, k int) *Problem {
	p := NewProblem(k + 1) // +1: an empty column
	for i := 0; i < k; i++ {
		p.SetObjectiveCoeff(i, 2*rng.next()-1)
	}
	p.SetObjectiveCoeff(k, 0.5+rng.next())
	for i := 0; i+1 < k; i++ {
		f := math.Exp(0.4 + rng.next())
		p.AddConstraint([]Term{{i, 1}, {i + 1, -f}}, LE, 0)
		p.AddConstraint([]Term{{i + 1, 1}, {i, -f}}, LE, 0)
	}
	for i := 0; i < k; i++ {
		p.AddConstraint([]Term{{i, 1}}, LE, 1)
	}
	// A mass row keeps the minimum bounded even with negative costs.
	terms := make([]Term, k)
	for i := range terms {
		terms[i] = Term{Var: i, Coef: 1}
	}
	p.AddConstraint(terms, GE, 0.5)
	// Degenerate decorations.
	j := int(rng.next() * float64(k))
	p.AddConstraint([]Term{{j, 2}}, EQ, 2*0.5) // fixes z_j = 0.5
	p.AddConstraint([]Term{{j, 1}}, GE, -1)    // redundant
	p.AddConstraint(terms, GE, 0.5)            // duplicate of the mass row
	return p
}

// TestSolveGeoIDualCertificate is the optimality certificate on
// randomized degenerate Geo-I instances: a feasible primal, duals that
// satisfy strong duality (dual objective equal to primal) and dual
// feasibility.
func TestSolveGeoIDualCertificate(t *testing.T) {
	rng := xorshift64(0x9e3779b97f4a7c15)
	for trial := 0; trial < 40; trial++ {
		k := 3 + int(rng.next()*6)
		p := geoIInstance(&rng, k)

		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: solve: %v", trial, err)
		}
		if sol.Status != Optimal {
			continue
		}
		if v := p.Violation(sol.X); v > 1e-6 {
			t.Fatalf("trial %d: primal violates by %g", trial, v)
		}
		// Strong duality: y·b == c·x.
		dualObj := 0.0
		for i := 0; i < p.NumConstraints(); i++ {
			dualObj += sol.Duals[i] * rowRHS(p, i)
		}
		if d := math.Abs(dualObj - sol.Objective); d > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("trial %d: dual objective %v vs primal %v", trial, dualObj, sol.Objective)
		}
		// Dual feasibility: every column's reduced cost ≥ −tol, with the
		// right sign restriction per row type already folded into y.
		rc := reducedCosts(p, sol.Duals)
		for j, v := range rc {
			if v < -1e-6 {
				t.Fatalf("trial %d: column %d reduced cost %g < 0 (duals %v)", trial, j, v, sol.Duals)
			}
		}
	}
}

func rowRHS(p *Problem, i int) float64 { return p.constraints[i].RHS }

func reducedCosts(p *Problem, y []float64) []float64 {
	rc := append([]float64(nil), p.objective...)
	for i, c := range p.constraints {
		for _, t := range c.Terms {
			rc[t.Var] -= y[i] * t.Coef
		}
	}
	return rc
}

// TestSparsePricingSweepAllocs guards the sparse pricing path: once a
// Prepared instance on the pricing-shaped dual LP is warm, retuning the
// right-hand sides and re-solving (the per-round CG pricing pattern,
// which runs the CSR pricing sweep every pivot) must stay allocation-
// free in steady state.
func TestSparsePricingSweepAllocs(t *testing.T) {
	rng := xorshift64(0x94d049bb133111eb)
	k := 8
	p := geoIInstance(&rng, k)
	pp, err := Prepare(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Solve(); err != nil {
		t.Fatal(err)
	}
	basis := pp.Basis(nil)
	if _, err := pp.SolveFrom(basis); err != nil {
		t.Fatal(err)
	}
	basis = pp.Basis(basis)
	step := 0
	allocs := testing.AllocsPerRun(20, func() {
		step++
		pp.SetRHS(2*(k-1), 0.9+0.01*float64(step%5))
		if _, err := pp.SolveFrom(basis); err != nil {
			t.Fatal(err)
		}
		basis = pp.Basis(basis)
	})
	if allocs > 2 {
		t.Fatalf("sparse pricing re-solve allocates %v objects per run, want ≤ 2", allocs)
	}
}

// TestIPMMatchesSimplex checks the interior-point and simplex optima
// agree on a degenerate Geo-I instance.
func TestIPMMatchesSimplex(t *testing.T) {
	rng := xorshift64(0x6a09e667f3bcc909)
	p := geoIInstance(&rng, 6)
	sx, err := Solve(p, Options{})
	if err != nil || sx.Status != Optimal {
		t.Fatalf("simplex: %+v, %v", sx, err)
	}
	ipm, err := SolveIPM(p, Options{})
	if err != nil || ipm.Status != Optimal {
		t.Fatalf("IPM: %+v, %v", ipm, err)
	}
	if d := math.Abs(sx.Objective - ipm.Objective); d > 1e-6*(1+math.Abs(sx.Objective)) {
		t.Fatalf("objectives differ: simplex %v, IPM %v", sx.Objective, ipm.Objective)
	}
}
