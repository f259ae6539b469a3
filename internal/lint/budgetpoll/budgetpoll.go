// Package budgetpoll flags loops in the solver/evaluation packages
// (internal/core, internal/engine, internal/sat, internal/minones,
// internal/smt) that do evaluation- or solver-shaped work without a
// reachable budget poll. PR 5 plumbed per-request budgets through the
// whole stack precisely because hot loops that forget to poll let a
// request outlive its deadline; this analyzer keeps new loops honest.
//
// A loop needs a poll when its body calls into evaluation/solving (callee
// name matching eval/solve/search/enumerate/verify/... ) or when it is an
// unbounded `for { ... }` that performs calls. The poll is satisfied by a
// budget-check call reachable in the loop body, its same-package callees
// one level deep (p.interrupted(), opts.Stop(), ctx.Err(), s.Stop(),
// engineOpts()/solverOpts() plumbing, ...), or by the enclosing function
// wiring a Stop/Ctx budget into the callee's configuration before the
// loop. Everything else needs "//lint:budgeted <reason>".
package budgetpoll

import (
	"go/ast"
	"go/types"
	"path"
	"regexp"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the budgetpoll analyzer.
var Analyzer = &lint.Analyzer{
	Name:      "budgetpoll",
	Directive: "budgeted",
	SkipTests: true,
	Doc: `flag evaluation/solver loops with no reachable budget poll

Per-request budgets (core.Problem.Ctx, engine.Options.Stop, sat.Solver.Stop)
only bound latency if hot loops poll them. Poll p.interrupted() / opts.Stop
in the loop, wire the budget into the callee, or suppress with
"//lint:budgeted <reason>" for loops bounded by construction.`,
	Run: run,
}

// scopePkgs are the package basenames the analyzer applies to: the
// packages whose loops run under per-request budgets.
var scopePkgs = map[string]bool{
	"core":    true,
	"engine":  true,
	"sat":     true,
	"minones": true,
	"smt":     true,
}

// heavyWords are identifier-word prefixes marking callees that do
// evaluation- or solver-shaped work. Matching is per camelCase word so
// "Resolve" does not match "solve" but "EvalProvOpts" matches "eval".
// The delta/revise/grade entries cover the IVM loop class: a session or
// storm loop that applies deltas (ApplyDelta, propagateDelta) or re-grades
// (ReviseQuery, Grade) per step runs under the same per-request budgets as
// one-shot evaluation and must poll between steps.
var heavyWords = []string{"eval", "solve", "disagree", "verify", "enumerate", "minimiz", "shrink", "search", "propagat", "delta", "revise", "grade"}

// isHeavyName reports whether any camelCase word of name starts with a
// heavy-work prefix.
func isHeavyName(name string) bool {
	for _, w := range camelWords(name) {
		for _, h := range heavyWords {
			if strings.HasPrefix(w, h) {
				return true
			}
		}
	}
	return false
}

// camelWords splits an identifier into lowercased words at case
// transitions and underscores: "EvalProvOpts" -> [eval prov opts].
func camelWords(name string) []string {
	var words []string
	start := 0
	for i := 1; i <= len(name); i++ {
		if i == len(name) || name[i] == '_' || (name[i] >= 'A' && name[i] <= 'Z' && !(name[i-1] >= 'A' && name[i-1] <= 'Z')) {
			if i > start {
				words = append(words, strings.ToLower(name[start:i]))
			}
			start = i
			if i < len(name) && name[i] == '_' {
				start = i + 1
			}
		}
	}
	return words
}

// markerRE matches callee names that poll or plumb the budget.
var markerRE = regexp.MustCompile(`(?i)^(interrupted|stop|stopfunc|stopped|err|done|poll.*|.*budget.*|engineopts|solveropts)$`)

func run(pass *lint.Pass) {
	if !scopePkgs[path.Base(pass.Pkg.Path())] {
		return
	}

	// Index this package's function declarations by object, for the
	// one-level-deep callee scan.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, decls)
		}
	}
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl, decls map[types.Object]*ast.FuncDecl) {
	// Calls back into the enclosing function (structural recursion over a
	// formula/plan tree) are not counted as heavy work: the recursion's
	// driver is responsible for polling.
	self := pass.TypesInfo.Defs[fd.Name]

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		var unbounded bool
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
			unbounded = loop.Cond == nil
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}

		heavy := hasHeavyCall(pass, body, self)
		if !heavy && !(unbounded && hasForeignCall(pass, body, self)) {
			return true
		}
		if pollReachable(pass, body, decls) {
			return true
		}
		if wiresBudgetBefore(pass, fd, n, decls) {
			return true
		}
		what := "calls evaluation/solver work"
		if !heavy {
			what = "is unbounded"
		}
		pass.Reportf(n.Pos(), "loop %s but no budget poll (Ctx/Stop) is reachable in its body or direct callees; poll the budget or annotate //lint:budgeted", what)
		return true
	})
}

// hasHeavyCall reports whether the block calls a non-self function whose
// name looks like evaluation or solving.
func hasHeavyCall(pass *lint.Pass, body *ast.BlockStmt, self types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if isHeavyName(calleeName(call)) && (self == nil || calleeObject(pass, call) != self) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// hasForeignCall reports whether the block calls anything other than the
// enclosing function itself.
func hasForeignCall(pass *lint.Pass, body *ast.BlockStmt, self types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if self == nil || calleeObject(pass, call) != self {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// pollReachable reports whether a budget-check call appears in the block
// or in the body of a same-package callee (one level deep).
func pollReachable(pass *lint.Pass, body *ast.BlockStmt, decls map[types.Object]*ast.FuncDecl) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if markerRE.MatchString(calleeName(call)) {
			found = true
			return false
		}
		// One level deep: a same-package callee whose own body polls.
		if obj := calleeObject(pass, call); obj != nil {
			if callee, ok := decls[obj]; ok && hasMarkerCall(callee.Body) {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// hasMarkerCall is the depth-0 marker scan used inside callees.
func hasMarkerCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && markerRE.MatchString(calleeName(call)) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// wiresBudgetBefore reports whether the enclosing function configures a
// Stop/Ctx budget before the loop starts — s.Stop = opt.Stop,
// Options{Stop: ...}, or a call to a same-package helper (one level deep)
// that does so, like minones' newSolver — which means the budget is
// enforced inside whatever the loop calls.
func wiresBudgetBefore(pass *lint.Pass, fd *ast.FuncDecl, loop ast.Node, decls map[types.Object]*ast.FuncDecl) bool {
	found := false
	pos := loop.Pos()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil || found || n.Pos() >= pos {
			return false
		}
		if wiresBudget(n) {
			found = true
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := calleeObject(pass, call); obj != nil {
				if callee, ok := decls[obj]; ok {
					ast.Inspect(callee.Body, func(m ast.Node) bool {
						if m != nil && wiresBudget(m) {
							found = true
						}
						return !found
					})
					if found {
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// wiresBudget reports whether a single node assigns or sets a budget field.
func wiresBudget(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok && budgetField(sel.Sel.Name) {
				return true
			}
		}
	case *ast.KeyValueExpr:
		if id, ok := x.Key.(*ast.Ident); ok && budgetField(id.Name) {
			return true
		}
	}
	return false
}

func budgetField(name string) bool {
	switch name {
	case "Stop", "Ctx", "MaxConflicts", "MaxConflictsPerCall":
		return true
	}
	return false
}

func calleeObject(pass *lint.Pass, call *ast.CallExpr) types.Object {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[f.Sel]
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
