package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Ctxflow verifies the repository's cancellation discipline one
// function at a time — no call graph. Inside every module function that
// takes a context.Context, two rules apply:
//
//   - every unbounded loop must poll cancellation on its spine — a
//     ctx.Err()/ctx.Done() call, or a call passing a context on to a
//     callee declared outside the module or whose declaration uses its
//     own context parameter (one hop through Program.Decls; what the
//     callee does with the context is that function's own check). A
//     loop is unbounded unless its condition compares against a
//     constant or a len/cap expression (range loops are bounded by
//     construction). The spine is the loop body descending through
//     if/switch/select/blocks but not into nested loops or function
//     literals; a poll behind a stride guard
//     (if steps&255 == 0 { ctx.Err() }) therefore counts — the contract
//     is bounded cancellation latency, not a check on every iteration.
//   - the received context must not be dropped: context.Background()
//     and context.TODO() are flagged unless they sit inside an
//     `if ctx == nil` guard (the documented nil-tolerant entry points).
//
// Blind spots (audited in DESIGN.md): a function without a ctx
// parameter is not charged for its loops, even when it reaches a
// context through a struct field; a spine poll need not dominate every
// path; calls through interfaces or function values are never credited.
// TestCancellationLatencyMidRun covers the first two dynamically.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "verifies unbounded loops in context-taking functions poll ctx and that received contexts are never dropped",
	Run:  runCtxflow,
}

func runCtxflow(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if ctx := ctxParamOf(fn); ctx != nil {
				c := &ctxflowFunc{pass: p, decl: fd, ctx: ctx}
				c.checkLoops()
				c.checkDrops()
			}
		}
	}
}

type ctxflowFunc struct {
	pass *Pass
	decl *ast.FuncDecl
	ctx  *types.Var // the function's context.Context parameter

	singleInit map[*types.Var]ast.Expr // locals assigned exactly once: var -> initializer
}

// checkLoops flags every unbounded for-loop without a spine poll.
func (c *ctxflowFunc) checkLoops() {
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals run on their own goroutine/path budget
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if c.boundedCond(loop.Cond) {
			return true
		}
		if !c.spinePolls(loop.Body.List) {
			c.pass.Reportf(loop.Pos(), "unbounded loop in %s never polls ctx.Err/ctx.Done on its spine", c.decl.Name.Name)
		}
		return true
	})
}

// boundedCond reports whether a for condition provably bounds the trip
// count: a comparison where one operand is a constant, a len/cap call,
// or a local assigned exactly once from such an expression (the
// SSA-lite view: n := len(order) bounds k < n). A nil condition, bare
// booleans, and variable-vs-variable comparisons (round < rounds,
// mv < moves) are unbounded.
func (c *ctxflowFunc) boundedCond(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	return c.boundingOperand(be.X) || c.boundingOperand(be.Y)
}

func (c *ctxflowFunc) boundingOperand(e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := c.pass.Info.Types[e]; ok && tv.Value != nil {
		return true // constant bound
	}
	if call, ok := e.(*ast.CallExpr); ok {
		switch calleeBuiltin(c.pass.Info, call) {
		case "len", "cap":
			return true
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		c.ensureSingleInit()
		if obj, ok := c.pass.Info.Uses[id].(*types.Var); ok {
			if init, ok := c.singleInit[obj]; ok {
				return c.boundingInit(init)
			}
		}
	}
	return false
}

// boundingInit judges the single initializer of a local without
// re-entering single-assignment resolution (one level is enough for
// the n := len(order) idiom).
func (c *ctxflowFunc) boundingInit(e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := c.pass.Info.Types[e]; ok && tv.Value != nil {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok {
		switch calleeBuiltin(c.pass.Info, call) {
		case "len", "cap":
			return true
		}
	}
	return false
}

// ensureSingleInit builds the map of body locals assigned exactly once
// and never address-taken, with their initializer expression.
func (c *ctxflowFunc) ensureSingleInit() {
	if c.singleInit != nil {
		return
	}
	c.singleInit = map[*types.Var]ast.Expr{}
	info := c.pass.Info
	counts := map[*types.Var]int{}
	disqualified := map[*types.Var]bool{}
	note := func(id *ast.Ident, init ast.Expr) {
		var v *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v == nil {
			return
		}
		counts[v]++
		if init != nil && counts[v] == 1 {
			c.singleInit[v] = init
		}
	}
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					var init ast.Expr
					if len(n.Lhs) == len(n.Rhs) {
						init = n.Rhs[i]
					}
					note(id, init)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				note(id, nil)
			}
		case *ast.RangeStmt:
			if id, ok := n.Key.(*ast.Ident); ok && id != nil {
				note(id, nil)
			}
			if id, ok := n.Value.(*ast.Ident); ok && id != nil {
				note(id, nil)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						disqualified[v] = true
					}
				}
			}
		}
		return true
	})
	for v, n := range counts {
		if n != 1 || disqualified[v] {
			delete(c.singleInit, v)
		}
	}
}

// spinePolls walks the loop spine — statement lists descending through
// if/switch/select/block/labeled statements but not nested loops or
// function literals — looking for a cancellation poll.
func (c *ctxflowFunc) spinePolls(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if c.stmtPolls(st) {
			return true
		}
	}
	return false
}

func (c *ctxflowFunc) stmtPolls(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.LabeledStmt:
		return c.stmtPolls(st.Stmt)
	case *ast.BlockStmt:
		return c.spinePolls(st.List)
	case *ast.IfStmt:
		if st.Init != nil && c.stmtPolls(st.Init) {
			return true
		}
		if st.Cond != nil && c.nodePolls(st.Cond) {
			return true
		}
		if c.spinePolls(st.Body.List) {
			return true
		}
		return st.Else != nil && c.stmtPolls(st.Else)
	case *ast.SwitchStmt:
		if st.Init != nil && c.stmtPolls(st.Init) {
			return true
		}
		if st.Tag != nil && c.nodePolls(st.Tag) {
			return true
		}
		return c.clausesPoll(st.Body)
	case *ast.TypeSwitchStmt:
		return c.clausesPoll(st.Body)
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			comm := cl.(*ast.CommClause)
			if comm.Comm != nil && c.nodePolls(comm.Comm) {
				return true
			}
			if c.spinePolls(comm.Body) {
				return true
			}
		}
		return false
	case *ast.ForStmt, *ast.RangeStmt:
		return false // nested loops answer for themselves
	case *ast.ExprStmt, *ast.AssignStmt, *ast.ReturnStmt, *ast.DeclStmt,
		*ast.SendStmt, *ast.IncDecStmt, *ast.GoStmt, *ast.DeferStmt, *ast.BranchStmt:
		return c.nodePolls(st)
	}
	return false
}

func (c *ctxflowFunc) clausesPoll(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if c.nodePolls(e) {
				return true
			}
		}
		if c.spinePolls(cc.Body) {
			return true
		}
	}
	return false
}

// nodePolls scans a spine statement or expression (stopping at nested
// function literals) for a direct ctx poll or a ctx-forwarding call to
// a callee that takes over the polling duty.
func (c *ctxflowFunc) nodePolls(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCtxPollCall(c.pass.Info, call) || (forwardsContext(c.pass.Info, call) && c.calleeUsesCtx(call)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// calleeUsesCtx is the one-hop rule: a statically resolved callee
// outside the module is trusted with the context it is handed, a module
// function is trusted when its body mentions its own context parameter
// (func ignores(_ context.Context) {} does not), and a call through an
// interface or a function value is never credited.
func (c *ctxflowFunc) calleeUsesCtx(call *ast.CallExpr) bool {
	fn := calleeFunc(c.pass.Info, call)
	if fn == nil {
		return false
	}
	fn = fn.Origin()
	pkg := c.pass.Prog.Lookup(funcPkgPath(fn))
	if pkg == nil {
		return true
	}
	decl, param := c.pass.Prog.Decls[fn], ctxParamOf(fn)
	return decl != nil && decl.Body != nil && param != nil &&
		usesObject(pkg.Info, decl.Body, map[types.Object]bool{param: true})
}

// checkDrops flags context.Background()/context.TODO() in a function
// that received a context, excepting calls inside an `if ctx == nil`
// guard.
func (c *ctxflowFunc) checkDrops() {
	var stack []ast.Node // ancestors of the node being visited
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(c.pass.Info, call)
		if fn == nil || funcPkgPath(fn) != "context" {
			return true
		}
		if fn.Name() != "Background" && fn.Name() != "TODO" {
			return true
		}
		if !c.underNilGuard(stack) {
			c.pass.Reportf(call.Pos(), "%s drops its received context with context.%s (allowed only under an `if ctx == nil` guard)", c.decl.Name.Name, fn.Name())
		}
		return true
	})
}

// underNilGuard reports whether any ancestor is an if whose condition
// nil-checks the function's context parameter.
func (c *ctxflowFunc) underNilGuard(ancestors []ast.Node) bool {
	for _, p := range ancestors {
		ifs, ok := p.(*ast.IfStmt)
		if !ok {
			continue
		}
		be, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok {
			continue
		}
		if c.isCtxNilCheck(be.X, be.Y) || c.isCtxNilCheck(be.Y, be.X) {
			return true
		}
	}
	return false
}

func (c *ctxflowFunc) isCtxNilCheck(x, y ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok || c.pass.Info.Uses[id] != c.ctx {
		return false
	}
	yid, ok := ast.Unparen(y).(*ast.Ident)
	return ok && yid.Name == "nil"
}

// ctxParamOf returns the function's context.Context parameter, nil if
// it has none.
func ctxParamOf(fn *types.Func) *types.Var {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return params.At(i)
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// forwardsContext reports whether any argument of the call is a
// context.Context value.
func forwardsContext(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && tv.Type != nil && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isCtxPollCall reports a ctx.Err() or ctx.Done() call on a
// context.Context-typed receiver.
func isCtxPollCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && tv.Type != nil && isContextType(tv.Type)
}
