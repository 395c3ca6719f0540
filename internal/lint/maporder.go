package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags values whose ordering (or whose value) is derived
// from Go's randomized map iteration order and flows into a sink where
// that order becomes observable across ranks or runs:
//
//   - wire frames and point-to-point sends (wire.AppendFrame,
//     mpi.Isend64*, mpi.Send64, mpi.AppendTally) emitted per map
//     entry: frame contents and order become per-process random;
//   - float accumulation in map order: FP addition is not
//     associative, so the fold's result depends on iteration order;
//   - sequences built by appending (or cursor-advancing stores) under
//     map iteration that then reach a wire sink, a collective payload,
//     a Report/Result field, or a return — unless a sort
//     re-establishes a deterministic order first;
//   - rank-local map counts (len of a map) flowing into Report/Result
//     fields — the exact PR 5 LabelProp bug, where each rank reported
//     its own distinct-community count and the ranks disagreed.
//
// Deterministic idioms stay clean: plain-indexed stores under map
// iteration (gid-indexed scatter — each key owns its slot, so order
// does not matter), commutative integer accumulation, and sequences
// sorted before use.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map-iteration-order-derived values must not reach wire frames, float folds, or report fields without a deterministic reordering",
	Run:  runMapOrder,
}

// wireSinkFuncs are the calls that serialize their arguments toward
// another rank (or an artifact) in argument order: anything reaching
// them under map iteration makes the wire nondeterministic.
var wireSinkFuncs = map[callee]bool{
	{wirePath, "", "AppendFrame"}: true,
	{mpiPath, "", "Isend64"}:      true,
	{mpiPath, "", "Isend64Tag"}:   true,
	{mpiPath, "", "Send64"}:       true,
	{mpiPath, "", "AppendTally"}:  true,
}

// collectivePayloadFuncs carry a payload slice whose element order is
// observable by the receiving ranks.
var collectivePayloadFuncs = withExchangerMethods(map[callee]bool{
	{mpiPath, "", "Alltoallv"}:  true,
	{mpiPath, "", "Allgatherv"}: true,
	{mpiPath, "", "Bcast"}:      true,
	{mpiPath, "", "Allreduce"}:  true,
}, true, "Begin", "BeginTally", "BeginValues", "BeginPush", "FlushTally")

// reportTypeName reports whether a named struct type is a results
// container: per-run values every rank (and every run at fixed seeds)
// must agree on.
func reportTypeName(name string) bool {
	return name == "Report" || name == "Result" ||
		strings.HasSuffix(name, "Report") || strings.HasSuffix(name, "Result")
}

func runMapOrder(pass *Pass) {
	// The wire and mpi packages implement the framing; inside them the
	// sink calls are the plumbing itself.
	base := strings.TrimSuffix(pass.Pkg.Path(), "-test")
	if base == mpiPath || base == wirePath {
		return
	}
	// Interprocedural: a same-package helper that (transitively) calls
	// a wire sink makes calls to it sinks too.
	sinkHelpers := pass.Graph.propagate(pass.Files, func(fn *types.Func, decl *ast.FuncDecl) bool {
		found := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if c, ok := calleeOf(pass.Info, call); ok && wireSinkFuncs[c] {
					found = true
				}
			}
			return true
		})
		return found
	})
	for _, unit := range funcUnits(pass.Files) {
		checkMapOrder(pass, unit.decl, sinkHelpers)
		checkMapCountReport(pass, unit.decl)
	}
}

// mapRangeOf returns the range statement's map-typed operand, or nil.
func mapRangeOf(pass *Pass, st *ast.RangeStmt) ast.Expr {
	t := pass.Info.TypeOf(st.X)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); isMap {
		return st.X
	}
	return nil
}

func checkMapOrder(pass *Pass, fd *ast.FuncDecl, sinkHelpers map[*types.Func]*types.Func) {
	info := pass.Info

	// tainted tracks slices built in map order (per function, keyed by
	// the receiver-expression string): append targets and
	// cursor-advancing stores under a map range. A sort over the slice
	// clears the taint; a sink use reports it.
	tainted := map[string]token.Pos{}

	isFloat := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}

	// declaredIn reports whether ident's declaration lies within node.
	declaredIn := func(id *ast.Ident, n ast.Node) bool {
		obj := objOf(info, id)
		if obj == nil {
			return false
		}
		return obj.Pos() >= n.Pos() && obj.Pos() <= n.End()
	}

	rootIdent := func(e ast.Expr) *ast.Ident {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				return x
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return nil
			}
		}
	}

	// incremented collects the exprString of every operand of ++/+= in
	// a subtree: an indexed store whose index mentions one of these is
	// a cursor-advancing store — order-dependent, unlike a gid-indexed
	// scatter.
	incremented := func(n ast.Node) map[string]bool {
		out := map[string]bool{}
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.IncDecStmt:
				out[exprString(x.X)] = true
			case *ast.AssignStmt:
				if x.Tok == token.ADD_ASSIGN {
					for _, l := range x.Lhs {
						out[exprString(l)] = true
					}
				}
			}
			return true
		})
		return out
	}

	// checkBody walks one map-range body.
	var checkBody func(rng *ast.RangeStmt)
	checkBody = func(rng *ast.RangeStmt) {
		cursors := incremented(rng.Body)
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.RangeStmt:
				if mapRangeOf(pass, x) != nil && x != rng {
					return false // nested map range handled by its own visit
				}
			case *ast.CallExpr:
				if c, ok := calleeOf(info, x); ok && wireSinkFuncs[c] {
					pass.Reportf(x.Pos(),
						"%s inside range over a map: frame contents and order become map-iteration-order dependent; order the entries deterministically first (sort, or a gid-indexed pass)",
						c.name)
					return true
				}
				if fn := calleeFunc(info, x); fn != nil {
					if _, viaHelper := sinkHelpers[fn]; viaHelper {
						pass.Reportf(x.Pos(),
							"call to %s, which emits wire frames, inside range over a map: frame contents and order become map-iteration-order dependent",
							fn.Name())
					}
				}
			case *ast.AssignStmt:
				// Float accumulation in map order.
				if x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN || x.Tok == token.MUL_ASSIGN {
					for i, l := range x.Lhs {
						if isFloat(l) {
							if id := rootIdent(l); id != nil && !declaredIn(id, rng) {
								pass.Reportf(x.Rhs[i].Pos(),
									"float accumulation in map iteration order: FP addition is not associative, so the result differs run to run; fold in a deterministic order (sort the keys, or par.SumFloat64Ordered over a dense range)")
							}
						}
					}
				}
				// x = x + v float form.
				if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
					for i, l := range x.Lhs {
						if bin, ok := ast.Unparen(x.Rhs[i]).(*ast.BinaryExpr); ok && bin.Op == token.ADD &&
							isFloat(l) && exprString(bin.X) == exprString(l) {
							if id := rootIdent(l); id != nil && !declaredIn(id, rng) {
								pass.Reportf(x.Rhs[i].Pos(),
									"float accumulation in map iteration order: FP addition is not associative, so the result differs run to run; fold in a deterministic order")
							}
						}
					}
				}
				// Append to an outer slice: order-dependent sequence.
				for i := range x.Lhs {
					if i >= len(x.Rhs) {
						break
					}
					call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
					if !ok {
						continue
					}
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
						if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
							if root := rootIdent(x.Lhs[i]); root != nil && !declaredIn(root, rng) {
								tainted[exprString(x.Lhs[i])] = x.Pos()
							}
						}
					}
				}
				// Cursor-advancing store into an outer slice:
				// dst[cursor] = v; cursor++ — same order dependence as
				// append. A store through a loop-invariant index (a
				// gid-indexed scatter) stays clean.
				if x.Tok == token.ASSIGN {
					for _, l := range x.Lhs {
						ix, ok := ast.Unparen(l).(*ast.IndexExpr)
						if !ok {
							continue
						}
						idxStr := exprString(ix.Index)
						cursorIdx := false
						for c := range cursors {
							if idxStr == c || strings.Contains(idxStr, c+"[") || strings.HasPrefix(idxStr, c+".") {
								cursorIdx = true
							}
						}
						if !cursorIdx {
							continue
						}
						if root := rootIdent(ix.X); root != nil && !declaredIn(root, rng) {
							tainted[exprString(ix.X)] = l.Pos()
						}
					}
				}
			}
			return true
		})
	}

	// First pass: find map ranges, taint order-dependent collections.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok && mapRangeOf(pass, rng) != nil {
			checkBody(rng)
		}
		return true
	})
	if len(tainted) == 0 {
		return
	}

	// Second pass, in source order: a sort over a tainted slice clears
	// it; a sink use (wire sink, collective payload, report field,
	// return) reports it.
	clearIfSorted := func(call *ast.CallExpr) {
		c, ok := calleeOf(info, call)
		if !ok || (c.pkg != "sort" && c.pkg != "slices") {
			return
		}
		for _, a := range call.Args {
			s := exprString(a)
			for t := range tainted {
				if s == t || strings.HasPrefix(s, t+"[") || strings.HasPrefix(s, t+".") {
					delete(tainted, t)
				}
			}
		}
	}
	taintedArg := func(a ast.Expr) (string, bool) {
		s := exprString(a)
		for t := range tainted {
			if s == t || strings.HasPrefix(s, t+"[") {
				return t, true
			}
		}
		return "", false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			clearIfSorted(x)
			c, ok := calleeOf(info, x)
			if !ok {
				return true
			}
			if wireSinkFuncs[c] || collectivePayloadFuncs[c] {
				for _, a := range x.Args {
					if t, hit := taintedArg(a); hit {
						name := c.name
						pass.Reportf(a.Pos(),
							"%s was built in map iteration order and reaches %s unsorted: the payload's element order differs per process; sort it (or fill it through a gid-indexed pass) first",
							t, name)
						delete(tainted, t)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if t, hit := taintedArg(r); hit {
					pass.Reportf(r.Pos(),
						"%s was built in map iteration order and is returned unsorted: callers observe a different order every run; sort it first",
						t)
					delete(tainted, t)
				}
			}
		case *ast.KeyValueExpr:
			if t, hit := taintedArg(x.Value); hit {
				if outer := enclosingReportLiteral(pass, fd, x); outer != "" {
					pass.Reportf(x.Value.Pos(),
						"%s was built in map iteration order and reaches %s field %s unsorted: report fields must be identical across runs; sort it first",
						t, outer, exprString(x.Key))
					delete(tainted, t)
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN {
				return true
			}
			for i, l := range x.Lhs {
				if i >= len(x.Rhs) {
					break
				}
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if named := namedOf(info.TypeOf(sel.X)); named != nil && reportTypeName(named.Obj().Name()) {
					if t, hit := taintedArg(x.Rhs[i]); hit {
						pass.Reportf(x.Rhs[i].Pos(),
							"%s was built in map iteration order and reaches report field %s unsorted: report fields must be identical across runs; sort it first",
							t, exprString(l))
						delete(tainted, t)
					}
				}
			}
		}
		return true
	})
}

// enclosingReportLiteral returns the type name of the innermost
// composite literal containing kv, when that type is a Report/Result
// container, else "".
func enclosingReportLiteral(pass *Pass, fd *ast.FuncDecl, kv *ast.KeyValueExpr) string {
	name := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, e := range lit.Elts {
			if e == kv {
				if named := namedOf(pass.Info.TypeOf(lit)); named != nil && reportTypeName(named.Obj().Name()) {
					name = named.Obj().Name()
				}
			}
		}
		return true
	})
	return name
}

// checkMapCountReport flags rank-local map counts (len of a map,
// possibly through one local and conversions) flowing into a
// Report/Result field: each rank's map holds its own keys, so the
// ranks report different numbers — the PR 5 LabelProp
// community-count bug. Passing the count through a collective
// (AllreduceScalar) launders it correctly: call results carry no
// taint.
func checkMapCountReport(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info

	// lenOfMap reports whether e is len(m) over a map (through
	// conversions and parens).
	var lenOfMap func(e ast.Expr) bool
	lenOfMap = func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" && len(call.Args) == 1 {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				t := info.TypeOf(call.Args[0])
				if t != nil {
					_, isMap := t.Underlying().(*types.Map)
					return isMap
				}
			}
		}
		// Conversion: T(len(m)).
		if len(call.Args) == 1 {
			if _, isConv := info.Types[call.Fun]; isConv {
				if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
					return lenOfMap(call.Args[0])
				}
			}
		}
		return false
	}

	// Locals assigned from len(map) expressions.
	counts := map[types.Object]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			if lenOfMap(as.Rhs[i]) {
				if obj := objOf(info, id); obj != nil {
					counts[obj] = as.Rhs[i].Pos()
				}
			}
		}
		return true
	})

	// mapCountExpr: e is len(map) directly, or mentions a counted
	// local (through conversions and arithmetic).
	mapCountExpr := func(e ast.Expr) bool {
		if lenOfMap(e) {
			return true
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				// A non-conversion call result launders the count (the
				// collective-reduction idiom).
				if tv, ok := info.Types[x.Fun]; !ok || !tv.IsType() {
					if lenOfMap(x) {
						found = true
					}
					return false
				}
			case *ast.Ident:
				if obj := objOf(info, x); obj != nil {
					if _, hit := counts[obj]; hit {
						found = true
					}
				}
			}
			return true
		})
		return found
	}

	report := func(pos token.Pos, field string) {
		pass.Reportf(pos,
			"rank-local map count flows into report field %s: each rank's map holds different keys, so the ranks disagree (the PR 5 LabelProp bug); reduce the count globally first (globalDistinct / AllreduceScalar)",
			field)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			named := namedOf(info.TypeOf(x))
			if named == nil || !reportTypeName(named.Obj().Name()) {
				return true
			}
			for _, e := range x.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if mapCountExpr(kv.Value) {
					report(kv.Value.Pos(), named.Obj().Name()+"."+exprString(kv.Key))
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, l := range x.Lhs {
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				named := namedOf(info.TypeOf(sel.X))
				if named == nil || !reportTypeName(named.Obj().Name()) {
					continue
				}
				if mapCountExpr(x.Rhs[i]) {
					report(x.Rhs[i].Pos(), exprString(l))
				}
			}
		}
		return true
	})
}
