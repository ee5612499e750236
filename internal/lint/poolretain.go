package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolRetain flags uses of a sync.Pool object — or anything derived from it
// — after the matching Put has returned it to the pool. poolescape guards
// the spatial boundary (a pooled reference must not leave the borrowing
// frame); this check guards the temporal one inside the frame: once Put
// runs, another goroutine's Get may own the object, and a retained alias
// (the object itself, a field read off it, a sub-slice of its backing
// array) reads memory that is concurrently being rewritten. That is the
// stale-alias bug class the pooled scratch paths invite: scan results
// sliced out of a pooled buffer, returned AFTER the buffer went back.
//
// Tracking is intraprocedural and source-ordered: variables bound to a
// pool source are the roots, aliases are variables assigned from a root
// (or another alias) through selector/index/slice/star chains, and a use
// textually after a non-deferred Put of the root is flagged unless the
// root was rebound in between (x = pool.Get() again starts a new bracket).
// A pool source is a literal (*sync.Pool).Get call OR a call to a
// same-package accessor that wraps one — a single-result function whose
// body draws from a sync.Pool (the getSearcher/getScratch facade
// pattern, which carries a poolescape suppression on its return). Without
// accessor recognition most real brackets in this module would be
// invisible: serving code mostly draws through such accessors.
// `defer pool.Put(x)` is the recommended pattern and never flags — the Put
// runs at return, after every use. Loops can execute a textually-earlier
// use after a Put; like the rest of the engine this under-approximates
// rather than guess.
//
// A use that is provably safe (e.g. reading a value copied by Put's own
// argument evaluation) takes //lint:ignore poolretain <reason> at the use.
var PoolRetain = &Analyzer{
	Name:      "poolretain",
	Doc:       "values derived from a sync.Pool Get must not be used after the matching Put",
	Run:       runPoolRetain,
	TestFiles: true,
}

func runPoolRetain(p *Pass) {
	accessors := poolAccessors(p)
	for _, f := range p.Files {
		if p.SkipFile(f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				poolRetainFunc(p, fd, accessors)
			}
		}
	}
}

// poolAccessors collects the package's typed pool facades: single-result
// functions whose body calls (*sync.Pool).Get. A call to one hands the
// caller a pooled object exactly like a literal Get, so it seeds a root.
// Same-package only — cross-package accessors would need exported facts.
func poolAccessors(p *Pass) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, isCall := n.(*ast.CallExpr); isCall && isPoolGet(p, call) {
					out[fn] = true
					return false
				}
				return true
			})
		}
	}
	return out
}

// isPoolSource reports whether e yields a pooled object: a literal
// (*sync.Pool).Get call, or a call to a recognized pool accessor (either
// possibly through a type assertion).
func isPoolSource(p *Pass, e ast.Expr, accessors map[*types.Func]bool) bool {
	if isPoolGet(p, e) {
		return true
	}
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(p.Info, call)
	return fn != nil && accessors[fn]
}

func poolRetainFunc(p *Pass, fd *ast.FuncDecl, accessors map[*types.Func]bool) {
	// Roots: variables bound to a pool.Get result (possibly type-asserted).
	// Aliases: variables assigned from a root/alias through a derivation
	// chain. One source-ordered pre-pass suffices — an alias created before
	// its root's Get is meaningless and Go's declaration order makes the
	// forward case the only real one; the map is iterated to fixpoint so
	// alias-of-alias chains resolve regardless of assignment order.
	rootOf := make(map[*types.Var]*types.Var) // var -> its pool.Get root
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				v := assignedVar(p, s.Lhs[i])
				if v == nil {
					continue
				}
				if isPoolSource(p, rhs, accessors) {
					rootOf[v] = v
				} else if base := derivationBase(p, rhs); base != nil && base != v {
					// Recorded even before base is known pooled (resolved in
					// the fixpoint below); a variable ever bound to a Get
					// result stays a root.
					if rootOf[v] != v {
						rootOf[v] = base
					}
				}
			}
		case *ast.ValueSpec:
			for i, val := range s.Values {
				if i >= len(s.Names) {
					break
				}
				v, ok := p.Info.Defs[s.Names[i]].(*types.Var)
				if !ok {
					continue
				}
				if isPoolSource(p, val, accessors) {
					rootOf[v] = v
				} else if base := derivationBase(p, val); base != nil {
					rootOf[v] = base
				}
			}
		}
		return true
	})
	// Resolve alias chains to their ultimate root; drop variables whose
	// chain never reaches a pool.Get root.
	for changed := true; changed; {
		changed = false
		for v, base := range rootOf {
			if base == v {
				continue
			}
			if r, ok := rootOf[base]; ok && r != base {
				rootOf[v] = r
				changed = true
			}
		}
	}
	tracked := make(map[*types.Var]*types.Var)
	for v, base := range rootOf {
		if r, ok := rootOf[base]; ok && r == base {
			tracked[v] = base
		}
	}
	if len(tracked) == 0 {
		return
	}

	// Events per root, in source order: non-deferred Puts end the bracket,
	// rebinding the root starts a new one.
	puts := make(map[*types.Var][]token.Pos)
	rebinds := make(map[*types.Var][]token.Pos)
	// writeIdent marks assignment-target idents of tracked variables: the
	// lhs of `v = pool.Get()` is the rebind itself, not a read of the old
	// object, so the use walk must not flag it.
	writeIdent := make(map[token.Pos]bool)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch s := n.(type) {
		case *ast.CallExpr:
			if root := poolPutOf(p, s, tracked); root != nil && !underDeferOrLit(stack) {
				puts[root] = append(puts[root], s.Pos())
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if v := assignedVar(p, lhs); v != nil {
					if _, ok := tracked[v]; ok {
						writeIdent[lhs.Pos()] = true
					}
					if root, ok := tracked[v]; ok && v == root {
						rebinds[root] = append(rebinds[root], s.Pos())
					}
				}
			}
		}
		return true
	})
	if len(puts) == 0 {
		return
	}

	// Uses: any identifier resolving to a tracked variable, textually after
	// a Put of its root with no rebind of the root in between. The Put
	// call's own argument does not count (it IS the handback).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && poolPutOf(p, call, tracked) != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || writeIdent[id.Pos()] {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		root, ok := tracked[v]
		if !ok {
			return true
		}
		put := lastBefore(puts[root], id.Pos())
		if put == token.NoPos || lastBefore(rebinds[root], id.Pos()) > put {
			return true
		}
		what := "pooled value " + id.Name
		if v != root {
			what = id.Name + " (derived from pooled " + root.Name() + ")"
		}
		p.Reportf(id.Pos(), "use of %s after %s was returned to the pool at line %d; another goroutine's Get may already own the object, so this reads recycled memory — move the use before the Put, copy the data out first, or suppress with //lint:ignore poolretain <reason>", what, root.Name(), p.Fset.Position(put).Line)
		return true
	})
}

// derivationBase resolves an expression that derives a view of a variable —
// selector, index, slice, deref, address-of chains — to that variable, or
// nil. `y := x.buf[4:]` derives from x.
func derivationBase(p *Pass, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			// Only field reads derive the object; pkg.Var and method values
			// do not.
			if sel, ok := p.Info.Selections[x]; !ok || sel.Kind() != types.FieldVal {
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			v, _ := p.Info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// poolPutOf returns the tracked ROOT handed back by a (*sync.Pool).Put
// call — the root of whichever tracked variable (or derivation of one) is
// the argument — or nil.
func poolPutOf(p *Pass, call *ast.CallExpr, tracked map[*types.Var]*types.Var) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
		return nil
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || recvTypeName(fn) != "Pool" {
		return nil
	}
	v := derivationBase(p, call.Args[0])
	if v == nil {
		return nil
	}
	return tracked[v]
}

// underDeferOrLit reports whether the innermost enclosing context of the
// node at the top of the stack defers execution: a defer statement or a
// function literal (which runs on its own schedule; a Put inside one is
// some callback's bracket, not this walk's).
func underDeferOrLit(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return true
		}
	}
	return false
}

// lastBefore returns the greatest position in sorted-insertion-order ps
// that is strictly before pos, or NoPos.
func lastBefore(ps []token.Pos, pos token.Pos) token.Pos {
	best := token.NoPos
	for _, p := range ps {
		if p < pos && p > best {
			best = p
		}
	}
	return best
}
