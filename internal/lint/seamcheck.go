package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Seamcheck confines raw-word heap access to the collector kernels, the
// kernels*.go files inside internal/core; only those files may bypass
// the checked heap interface:
//
//   - (*mem.Space).Raw — direct word-slice access to an arena;
//   - the obj raw header codecs (PackHeader, PackForward, HeaderKind,
//     HeaderLen, HeaderSite, ForwardAddr) — decoding a header word
//     outside the codec invariants;
//   - arithmetic on mem.Addr values — bypassing the overflow-checked
//     Addr.Add (conversions like mem.Addr(x) and uint64(a) are fine, and
//     comparisons are order queries, not address computation).
//
// A raw word means whatever its reader says it is: a header, a mask or a
// pointer. Read without object-layout knowledge, a pointer-shaped integer
// decodes as a header or forwards as a pointer — the card-drain bug the
// differential fuzzer found (corpus seeds 3892 and 29187). Policy code
// (allocation routing, barrier drains, collection scheduling) in
// internal/core and internal/rt must therefore stay on the checked
// Heap/obj.Decode interface, which walks objects from a known header
// boundary; the kernels, the one place raw access is allowed, are pinned
// by the kernel tests and checked by the fuzz fleet's cross-collector
// differential.
var Seamcheck = &Analyzer{
	Name: "seamcheck",
	Doc:  "confines raw-word access (Space.Raw, header codecs, Addr arithmetic) to kernels*.go",
	Run:  runSeamcheck,
}

// rawCodecNames are the obj package's raw header encode/decode helpers.
var rawCodecNames = map[string]bool{
	"PackHeader": true, "PackForward": true, "HeaderKind": true,
	"HeaderLen": true, "HeaderSite": true, "ForwardAddr": true,
}

// addrArithOps are the binary operators that compute with an address
// (comparisons excluded).
var addrArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true,
	token.REM: true, token.AND: true, token.OR: true, token.XOR: true,
	token.SHL: true, token.SHR: true, token.AND_NOT: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true, token.REM_ASSIGN: true, token.AND_ASSIGN: true,
	token.OR_ASSIGN: true, token.XOR_ASSIGN: true, token.SHL_ASSIGN: true,
	token.SHR_ASSIGN: true, token.AND_NOT_ASSIGN: true,
}

func runSeamcheck(pass *Pass) {
	if !inChargeScope(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		base := filepath.Base(pass.Pkg.Fset.Position(f.Pos()).Filename)
		if ok, _ := filepath.Match("kernels*.go", base); ok {
			continue // inside the seam
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				fn := staticCallee(info, e)
				if funcIs(fn, "internal/mem", "Space", "Raw") {
					pass.Reportf(e.Pos(), "Space.Raw outside the kernel seam (kernels*.go): policy code must use the checked Heap interface")
				} else if fn != nil && fn.Pkg() != nil &&
					pkgPathHasSuffix(fn.Pkg().Path(), "internal/obj") && rawCodecNames[fn.Name()] {
					pass.Reportf(e.Pos(), "raw header codec obj.%s outside the kernel seam (kernels*.go): policy code must use obj.Decode", fn.Name())
				}
			case *ast.BinaryExpr:
				if addrArithOps[e.Op] && (isMemAddr(info, e.X) || isMemAddr(info, e.Y)) {
					pass.Reportf(e.Pos(), "unchecked Addr arithmetic outside the kernel seam (kernels*.go): use the overflow-checked Addr.Add")
				}
			case *ast.AssignStmt:
				if addrArithOps[e.Tok] && len(e.Lhs) == 1 && isMemAddr(info, e.Lhs[0]) {
					pass.Reportf(e.Pos(), "unchecked Addr arithmetic outside the kernel seam (kernels*.go): use the overflow-checked Addr.Add")
				}
			case *ast.IncDecStmt:
				if isMemAddr(info, e.X) {
					pass.Reportf(e.Pos(), "unchecked Addr arithmetic outside the kernel seam (kernels*.go): use the overflow-checked Addr.Add")
				}
			}
			return true
		})
	}
}

// isMemAddr reports whether the expression's type is mem.Addr.
func isMemAddr(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Addr" && pkgPathHasSuffix(n.Obj().Pkg().Path(), "internal/mem")
}
