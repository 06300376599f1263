// Package nodeterm keeps the numeric kernel packages deterministic:
// identical inputs must produce identical mechanisms, or warm-start
// reproducibility, snapshot digests and the regression benchmarks all
// silently decay. It forbids
//
//   - wall-clock reads: time.Now, time.Since, time.Until;
//   - the global math/rand (and math/rand/v2) source: rand.Intn,
//     rand.Float64, rand.Shuffle, rand.Seed, ... — any package-level
//     function that draws from shared process-wide state.
//
// Explicitly seeded generators remain fine: rand.New(rand.NewSource(s))
// is deterministic, and it is how experiments draw reproducible samples.
// Served sampling lies outside this analyzer's scope: internal/server
// keys its generators from crypto/rand on purpose, because Geo-I hides a
// location only while the draw behind its report stays secret.
// Timing belongs to the callers (internal/core records Elapsed; the
// server records solve times) — kernels compute, they do not observe
// the clock.
package nodeterm

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc:  "forbid wall-clock and global-RNG reads in deterministic kernel packages",
	Run:  run,
}

// allowedRand are math/rand package-level functions that only construct
// explicitly seeded generators.
var allowedRand = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		// Methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine; only
		// package-level functions touch global state or the clock.
		if sig := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if clockFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "wall-clock read time.%s in a deterministic kernel package; take timings in the caller", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !allowedRand[fn.Name()] {
				pass.Reportf(call.Pos(), "global math/rand call rand.%s in a deterministic kernel package; thread an explicitly seeded *rand.Rand instead", fn.Name())
			}
		}
		return true
	})
	return nil
}
