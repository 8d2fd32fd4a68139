package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Barriercheck proves write-barrier completeness statically: any function
// that writes words into heap storage through the mem/obj primitives
// (Heap.Store/Copy/Words, Space.Raw, obj.SetField/SetForward/SetAge/
// SetAux) must either reach the write-barrier API ((*rt.SSB).Record or
// (*rt.CardTable).Record) through the static call graph, or carry a
// justified //gc:nobarrier annotation. Those two are the only barrier
// entry points: a pointer store on any simulated thread records into
// that thread's SSB or into the shared card table. The annotation
// allowlist is confined to internal/core — the collector kernels are the
// only code allowed to store unbarriered (their copies are scanned
// before the mutator resumes); anywhere else the annotation itself is a
// finding.
//
// This is the static dual of the sanitizer's remembered-set completeness
// pass: the sanitizer checks the stores that happened, this checks every
// store site that could happen. The analysis is function-granular and
// path-insensitive — a function that both stores and records is assumed
// barriered — so it complements, not replaces, the runtime check.
//
// The mem and obj packages themselves are exempt: they define the
// primitives and cannot be phrased in terms of them.
var Barriercheck = &Analyzer{
	Name:      "barriercheck",
	Doc:       "flags raw heap stores that cannot reach the write barrier (SSB/card Record)",
	RunModule: runBarriercheck,
}

// isHeapStore matches the primitive operations that can write a pointer
// word into heap storage (or hand out mutable raw windows onto it).
// obj.SetAge and obj.SetAux are deliberately absent: they rewrite header
// mark bits (collector age, application aux byte) that carry no pointer
// payload, so they can never create a remembered-set entry the barrier
// would have to record.
func isHeapStore(fn *types.Func) bool {
	switch {
	case funcIs(fn, "internal/mem", "Heap", "Store"),
		funcIs(fn, "internal/mem", "Heap", "Copy"),
		funcIs(fn, "internal/mem", "Heap", "Words"),
		funcIs(fn, "internal/mem", "Space", "Raw"),
		funcIs(fn, "internal/obj", "", "SetField"),
		funcIs(fn, "internal/obj", "", "SetForward"):
		return true
	}
	return false
}

// isBarrierRecord matches the write-barrier entry points.
func isBarrierRecord(fn *types.Func) bool {
	return funcIs(fn, "internal/rt", "SSB", "Record") ||
		funcIs(fn, "internal/rt", "CardTable", "Record")
}

func runBarriercheck(pass *Pass) {
	g := pass.CallGraph()
	annos := pass.Annotations("nobarrier")
	for _, p := range pass.Targets {
		// The primitive layer defines the store operations.
		if pkgPathHasSuffix(p.Path, "internal/mem") || pkgPathHasSuffix(p.Path, "internal/obj") {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				checkBarrierFunc(pass, g, p, fd, fn, annos[fn])
			}
		}
	}
}

// checkBarrierFunc applies the barrier-completeness rule to one function
// declaration (function literals inside it count as its own stores).
func checkBarrierFunc(pass *Pass, g *CallGraph, p *Package, fd *ast.FuncDecl, fn *types.Func, anno *Annotation) {
	stores := directStoreCalls(p, fd)
	switch {
	case len(stores) == 0:
		if anno != nil && anno.Reason != "" {
			pass.Reportf(fd.Pos(), "stale //gc:nobarrier: %s performs no raw heap store", fn.Name())
		}
	case g.Reaches(fn, isBarrierRecord):
		if anno != nil && anno.Reason != "" {
			pass.Reportf(fd.Pos(), "stale //gc:nobarrier: %s already reaches the write barrier", fn.Name())
		}
	case anno != nil && anno.Reason != "":
		if !pkgPathHasSuffix(p.Path, "internal/core") {
			pass.Reportf(fd.Pos(), "//gc:nobarrier outside internal/core: the unbarriered-store allowlist is confined to the collector kernels")
			break
		}
		anno.MarkUsed()
	default:
		for _, pos := range stores {
			pass.Reportf(pos, "raw heap store in %s without a reachable write barrier (SSB/card Record); collector-internal stores need //gc:nobarrier <why>", fn.Name())
		}
	}
}

// directStoreCalls returns the positions of direct heap-store primitive
// calls in the function body.
func directStoreCalls(p *Package, fd *ast.FuncDecl) []token.Pos {
	var out []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isHeapStore(staticCallee(p.Info, call)) {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}
