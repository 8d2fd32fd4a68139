package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Detflow upgrades detrand from call-site banning to interprocedural
// taint tracking. Detrand bans nondeterminism sources *inside* the fence;
// detflow catches host-derived values produced *outside* the fence and
// laundered across the boundary — through locals, arithmetic,
// conversions, helper functions, and struct fields — into fence-package
// sinks (trace events, collector operations, profile records,
// fingerprints).
//
// Two taint kinds are tracked:
//
//   - host: wall-clock, scheduler, and randomness reads (the detrand
//     source set);
//   - map-order: values derived from ranging over a Go map. Passing such
//     a value through a sort function (the maporder sort sinks) launders
//     the order dependence, so objects that are sorted anywhere in the
//     function are exempt — the maporder analyzer polices sort placement.
//
// Propagation is interprocedural via per-function summaries (does the
// return carry intrinsic taint; does parameter taint reach the return;
// does parameter taint reach a fence sink), iterated to a module-wide
// fixpoint, plus a flow-insensitive global tainted-struct-field set that
// catches laundering through fields of intermediate structs. Sinks are
// reported only in non-fence packages: inside the fence, sources
// themselves are detrand findings, and fence-internal dataflow is the
// packages' own business.
//
// The analysis is deliberately conservative about what it cannot see:
// calls through function values propagate argument taint and may call
// any module function whose value is taken and whose signature matches
// (a sink if one is, carrying their return taint), calls with no module
// summary may store their argument taint through any &x argument,
// interface calls to fence-declared methods count as fence sinks, and
// `make`/`new` with a tainted size do not taint the contents (a pool
// sized by GOMAXPROCS is fine; what flows through it is still tracked).
var Detflow = &Analyzer{
	Name:      "detflow",
	Doc:       "taint-tracks host-clock/scheduler/randomness and map-order values into fence-package sinks",
	RunModule: runDetflow,
}

// taintMask is a bitset of taint kinds.
type taintMask uint8

const (
	taintHost     taintMask = 1 << iota // wall clock, scheduler, randomness
	taintMapOrder                       // map iteration order
	taintAll      = taintHost | taintMapOrder
)

// taintDesc renders a mask for diagnostics.
func taintDesc(m taintMask) string {
	switch {
	case m&taintHost != 0 && m&taintMapOrder != 0:
		return "the host clock/scheduler/randomness and map iteration order"
	case m&taintHost != 0:
		return "the host clock, scheduler, or randomness"
	default:
		return "map iteration order"
	}
}

// isHostSource matches the detrand source set (time.Now, math/rand,
// runtime.GOMAXPROCS, ...) as taint origins.
func isHostSource(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	members, ok := detrandBanned[fn.Pkg().Path()]
	if !ok {
		return false
	}
	return members == nil || members[fn.Name()]
}

// isFenceField reports whether the struct field is declared in a fence
// package.
func isFenceField(v *types.Var) bool {
	return v != nil && v.IsField() && v.Pkg() != nil && inDetFence(v.Pkg().Path())
}

// dfSummary is the per-function taint summary.
type dfSummary struct {
	ret       taintMask // return taint with all parameters clean
	retParam  bool      // parameter taint propagates to the return value
	sinkParam bool      // parameter taint reaches a fence sink inside
}

// dfDecl is one analyzable function declaration.
type dfDecl struct {
	pkg *Package
	fd  *ast.FuncDecl
	fn  *types.Func
}

func runDetflow(pass *Pass) {
	summaries := make(map[*types.Func]*dfSummary)
	var decls []dfDecl
	for _, p := range pass.All {
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
				decls = append(decls, dfDecl{pkg: p, fd: fd, fn: fn})
				summaries[fn] = &dfSummary{}
			}
		}
	}
	fields := make(map[*types.Var]taintMask)
	dynamic := dynamicCallees(pass, summaries)

	// Module-wide fixpoint over summaries and the global field-taint set.
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, d := range decls {
			clean := newDFAnalysis(d, summaries, fields, dynamic, false, nil)
			clean.analyze()
			param := newDFAnalysis(d, summaries, fields, dynamic, true, nil)
			param.analyze()
			s := summaries[d.fn]
			if clean.ret&^s.ret != 0 {
				s.ret |= clean.ret
				changed = true
			}
			if clean.fieldsChanged {
				changed = true
			}
			if !s.retParam && param.ret&^clean.ret != 0 {
				s.retParam = true
				changed = true
			}
			if !s.sinkParam && param.sinkHit && !clean.sinkHit {
				s.sinkParam = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Reporting pass: sinks in non-fence target packages only.
	for _, d := range decls {
		if !d.pkg.Target || inDetFence(d.pkg.Path) {
			continue
		}
		rep := newDFAnalysis(d, summaries, fields, dynamic, false, pass)
		rep.analyze()
	}
}

// dynamicCallees maps each call through a function value to the module
// functions it may call: those whose value is taken (a use other than as
// a callee) and whose signature is identical to the called value's.
func dynamicCallees(pass *Pass, summaries map[*types.Func]*dfSummary) map[*ast.CallExpr][]*types.Func {
	var taken []*types.Func
	var calls []*ast.CallExpr
	var sigs []types.Type
	for _, p := range pass.All {
		for _, f := range p.Files {
			called := make(map[*ast.Ident]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.CallExpr:
					switch fun := ast.Unparen(v.Fun).(type) {
					case *ast.Ident:
						called[fun] = true
					case *ast.SelectorExpr:
						called[fun.Sel] = true
					}
					tv := p.Info.Types[v.Fun]
					if tv.Type != nil && tv.IsValue() && staticCallee(p.Info, v) == nil {
						calls, sigs = append(calls, v), append(sigs, tv.Type)
					}
				case *ast.Ident:
					if fn, ok := p.Info.Uses[v].(*types.Func); ok && !called[v] && summaries[fn] != nil {
						taken = append(taken, fn)
					}
				}
				return true
			})
		}
	}
	dynamic := make(map[*ast.CallExpr][]*types.Func)
	for i, call := range calls {
		for _, fn := range taken {
			if types.Identical(sigs[i].Underlying(), fn.Type()) && !slices.Contains(dynamic[call], fn) {
				dynamic[call] = append(dynamic[call], fn)
			}
		}
	}
	return dynamic
}

// dfAnalysis is one intra-procedural taint analysis of a function body.
type dfAnalysis struct {
	pkg       *Package
	info      *types.Info
	fd        *ast.FuncDecl
	summaries map[*types.Func]*dfSummary
	fields    map[*types.Var]taintMask
	dynamic   map[*ast.CallExpr][]*types.Func // see dynamicCallees
	paramMode bool                            // parameters start fully tainted (for summaries)
	pass      *Pass                           // non-nil: report sinks as diagnostics

	vars          map[types.Object]taintMask
	sorted        map[types.Object]bool // objects passed to a sort sink in this function
	ret           taintMask
	sinkHit       bool
	changed       bool // local propagation progress
	fieldsChanged bool
}

func newDFAnalysis(d dfDecl, summaries map[*types.Func]*dfSummary, fields map[*types.Var]taintMask,
	dynamic map[*ast.CallExpr][]*types.Func, paramMode bool, pass *Pass) *dfAnalysis {
	return &dfAnalysis{
		pkg: d.pkg, info: d.pkg.Info, fd: d.fd, summaries: summaries, fields: fields,
		dynamic: dynamic, paramMode: paramMode, pass: pass,
		vars: make(map[types.Object]taintMask), sorted: make(map[types.Object]bool),
	}
}

// analyze runs propagation to a local fixpoint, then scans for sinks
// (reporting them when pass is set).
func (a *dfAnalysis) analyze() {
	if a.paramMode {
		for _, fl := range []*ast.FieldList{a.fd.Recv, a.fd.Type.Params} {
			if fl == nil {
				continue
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					if obj := a.info.Defs[name]; obj != nil {
						a.vars[obj] = taintAll
					}
				}
			}
		}
	}
	a.collectSorted()
	for i := 0; i < 16; i++ {
		a.changed = false
		a.propagate(a.fd.Body, false)
		if !a.changed {
			break
		}
	}
	a.scanSinks()
}

// collectSorted records objects passed to a sort function anywhere in the
// body: sorting launders map-iteration order (maporder polices that the
// sort is placed correctly).
func (a *dfAnalysis) collectSorted() {
	ast.Inspect(a.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := a.info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		fns, ok := sortSinks[pn.Imported().Path()]
		if !ok || !fns[sel.Sel.Name] {
			return true
		}
		arg := call.Args[0]
		if u, isAddr := arg.(*ast.UnaryExpr); isAddr && u.Op == token.AND {
			arg = u.X
		}
		if obj := rootObject(a.info, arg); obj != nil {
			a.sorted[obj] = true
		}
		return true
	})
}

// propagate walks statements once, merging taint into variables, fields,
// and the return summary. inLit marks function-literal bodies, whose
// return statements do not belong to the enclosing declaration.
func (a *dfAnalysis) propagate(n ast.Node, inLit bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.FuncLit:
			a.propagate(s.Body, true)
			return false
		case *ast.AssignStmt:
			a.assign(s)
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t taintMask
					if len(vs.Values) == len(vs.Names) {
						t = a.exprTaint(vs.Values[i])
					} else if len(vs.Values) == 1 {
						t = a.exprTaint(vs.Values[0])
					}
					a.mergeIdent(name, t)
				}
			}
		case *ast.RangeStmt:
			t := a.exprTaint(s.X)
			if xt := a.info.Types[s.X].Type; xt != nil {
				if _, isMap := xt.Underlying().(*types.Map); isMap {
					t |= taintMapOrder
				}
			}
			for _, e := range []ast.Expr{s.Key, s.Value} {
				if e != nil {
					a.mergeLhs(e, t)
				}
			}
		case *ast.SendStmt:
			a.mergeLhs(s.Chan, a.exprTaint(s.Value))
		case *ast.CallExpr:
			// A callee with no summary may store any argument through a
			// pointer it is handed: flag.IntVar(&n, "n", runtime.NumCPU(), "").
			if _, ok := a.summaries[staticCallee(a.info, s)]; !ok {
				for _, arg := range s.Args {
					if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND {
						a.mergeLhs(u.X, a.callTaint(s))
					}
				}
			}
		case *ast.ReturnStmt:
			if !inLit {
				for _, r := range s.Results {
					a.mergeRet(a.exprTaint(r))
				}
			}
		}
		return true
	})
}

// assign merges right-hand taint into left-hand destinations.
func (a *dfAnalysis) assign(s *ast.AssignStmt) {
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 { // x, y := f()
		t := a.exprTaint(s.Rhs[0])
		for _, l := range s.Lhs {
			a.mergeLhs(l, t)
		}
		return
	}
	for i, l := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		t := a.exprTaint(s.Rhs[i])
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			t |= a.exprTaint(l) // compound assignment reads before writing
		}
		a.mergeLhs(l, t)
	}
}

// mergeLhs merges taint into an assignment destination: identifiers take
// it directly, field writes taint the field globally, element and
// indirect writes taint the container.
func (a *dfAnalysis) mergeLhs(l ast.Expr, t taintMask) {
	switch v := ast.Unparen(l).(type) {
	case *ast.Ident:
		a.mergeIdent(v, t)
	case *ast.SelectorExpr:
		if fv, ok := a.info.Uses[v.Sel].(*types.Var); ok && fv.IsField() {
			if t != 0 && !a.paramMode {
				if t&^a.fields[fv] != 0 {
					a.fields[fv] |= t
					a.fieldsChanged = true
					a.changed = true
				}
			}
			return
		}
		a.mergeLhs(v.X, t)
	case *ast.IndexExpr:
		// Inserting into a map launders map-order taint: a map is an
		// unordered container, so populating it in any iteration order
		// yields the identical map (the `for k, v := range m { cp[k] = v }`
		// copy idiom is deterministic). Host taint still flows through.
		if xt := a.info.Types[v.X].Type; xt != nil {
			if _, isMap := xt.Underlying().(*types.Map); isMap {
				t &^= taintMapOrder
			}
		}
		a.mergeLhs(v.X, t)
	case *ast.StarExpr:
		a.mergeLhs(v.X, t)
	}
}

// mergeIdent merges taint into the identifier's object.
func (a *dfAnalysis) mergeIdent(id *ast.Ident, t taintMask) {
	obj := a.info.Defs[id]
	if obj == nil {
		obj = a.info.Uses[id]
	}
	a.mergeObj(obj, t)
}

func (a *dfAnalysis) mergeObj(obj types.Object, t taintMask) {
	if obj == nil || t == 0 {
		return
	}
	if a.sorted[obj] {
		t &^= taintMapOrder
	}
	if t&^a.vars[obj] != 0 {
		a.vars[obj] |= t
		a.changed = true
	}
}

func (a *dfAnalysis) mergeRet(t taintMask) {
	if t&^a.ret != 0 {
		a.ret |= t
		a.changed = true
	}
}

// exprTaint computes the taint mask of an expression under the current
// variable/field state.
func (a *dfAnalysis) exprTaint(e ast.Expr) taintMask {
	switch v := e.(type) {
	case *ast.Ident:
		obj := a.info.Uses[v]
		if obj == nil {
			obj = a.info.Defs[v]
		}
		if obj == nil {
			return 0
		}
		return a.vars[obj]
	case *ast.SelectorExpr:
		if fv, ok := a.info.Uses[v.Sel].(*types.Var); ok && fv.IsField() {
			return a.fields[fv] | a.exprTaint(v.X)
		}
		if obj := a.info.Uses[v.Sel]; obj != nil {
			if _, isSel := a.info.Selections[v]; !isSel {
				return a.vars[obj] // package-qualified name
			}
		}
		return a.exprTaint(v.X) // method value: receiver taint
	case *ast.CallExpr:
		return a.callTaint(v)
	case *ast.BinaryExpr:
		return a.exprTaint(v.X) | a.exprTaint(v.Y)
	case *ast.UnaryExpr:
		return a.exprTaint(v.X) // includes channel receive
	case *ast.ParenExpr:
		return a.exprTaint(v.X)
	case *ast.StarExpr:
		return a.exprTaint(v.X)
	case *ast.IndexExpr:
		// Element of a tainted container. A tainted *index* into a clean
		// container selects clean data; order sensitivity of the
		// selection is maporder's domain.
		return a.exprTaint(v.X)
	case *ast.IndexListExpr:
		return a.exprTaint(v.X)
	case *ast.SliceExpr:
		return a.exprTaint(v.X)
	case *ast.TypeAssertExpr:
		return a.exprTaint(v.X)
	case *ast.CompositeLit:
		var t taintMask
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t |= a.exprTaint(kv.Value)
			} else {
				t |= a.exprTaint(el)
			}
		}
		return t
	}
	return 0
}

// callTaint computes the taint of a call result: sources introduce host
// taint, module functions apply their summaries, and unknown callees
// (stdlib, function values) conservatively launder argument and receiver
// taint through to the result, plus the return taint of every module
// function a function value may call. make/new are exempt: a tainted
// capacity does not taint the contents.
func (a *dfAnalysis) callTaint(call *ast.CallExpr) taintMask {
	var args taintMask
	for _, arg := range call.Args {
		args |= a.exprTaint(arg)
	}
	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if _, isSel := a.info.Selections[sel]; isSel {
			args |= a.exprTaint(sel.X) // method receiver
		}
	}
	if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() {
		return args // conversion
	}
	callee := staticCallee(a.info, call)
	if callee == nil {
		if id, ok := fun.(*ast.Ident); ok {
			if b, ok := a.info.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
				return 0
			}
		}
		for _, fn := range a.dynamic[call] {
			args |= a.summaries[fn].ret
		}
		return args
	}
	if isHostSource(callee) {
		return args | taintHost
	}
	if s, ok := a.summaries[callee]; ok {
		t := s.ret
		if s.retParam {
			t |= args
		}
		return t
	}
	return args
}

// isFenceSink reports whether passing tainted data to the function
// crosses the determinism fence: fence-declared functions and methods
// (including interface methods), plus module functions whose summary says
// parameter taint reaches a fence sink inside.
func (a *dfAnalysis) isFenceSink(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if inDetFence(fn.Pkg().Path()) {
		return true
	}
	s, ok := a.summaries[fn]
	return ok && s.sinkParam
}

// scanSinks walks the body once after propagation and records (or
// reports) every tainted value crossing into the fence: call arguments,
// stores into fence-declared struct fields, and fence-type composite
// literals.
func (a *dfAnalysis) scanSinks() {
	ast.Inspect(a.fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			callee, via := staticCallee(a.info, v), ""
			for _, fn := range a.dynamic[v] { // a function value is a sink if it may call one
				if a.isFenceSink(fn) {
					callee, via = fn, types.ExprString(v.Fun)+", which may call "
					break
				}
			}
			if !a.isFenceSink(callee) {
				return true
			}
			for _, arg := range v.Args {
				if t := a.exprTaint(arg); t != 0 {
					a.sinkHit = true
					if a.pass != nil {
						a.pass.Reportf(arg.Pos(), "value derived from %s flows into the determinism fence (argument to %s%s.%s)",
							taintDesc(t), via, pathBase(callee.Pkg().Path()), callee.Name())
					}
				}
			}
		case *ast.AssignStmt:
			for i, l := range v.Lhs {
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				fv, ok := a.info.Uses[sel.Sel].(*types.Var)
				if !ok || !isFenceField(fv) {
					continue
				}
				var t taintMask
				if len(v.Lhs) > 1 && len(v.Rhs) == 1 {
					t = a.exprTaint(v.Rhs[0])
				} else if i < len(v.Rhs) {
					t = a.exprTaint(v.Rhs[i])
				}
				if t != 0 {
					a.sinkHit = true
					if a.pass != nil {
						a.pass.Reportf(v.Pos(), "value derived from %s stored into field %s declared in deterministic package %s",
							taintDesc(t), fv.Name(), fv.Pkg().Path())
					}
				}
			}
		case *ast.CompositeLit:
			if !a.isFenceStructLit(v) {
				return true
			}
			for _, el := range v.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if t := a.exprTaint(val); t != 0 {
					a.sinkHit = true
					if a.pass != nil {
						a.pass.Reportf(val.Pos(), "value derived from %s in a composite literal of a deterministic-package type",
							taintDesc(t))
					}
				}
			}
		}
		return true
	})
}

// isFenceStructLit reports whether the composite literal builds a named
// struct type declared in a fence package.
func (a *dfAnalysis) isFenceStructLit(lit *ast.CompositeLit) bool {
	t := a.info.Types[lit].Type
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || !inDetFence(n.Obj().Pkg().Path()) {
		return false
	}
	_, isStruct := n.Underlying().(*types.Struct)
	return isStruct
}
