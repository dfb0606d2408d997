// Package atomiccheck implements the stashvet analyzer that enforces the
// all-or-nothing rule for function-style sync/atomic usage in the service
// layer: a field or package variable that is accessed through sync/atomic
// anywhere must be accessed atomically everywhere. Mixing
// atomic.AddInt64(&m.n, 1) on one path with a bare m.n = 0 on another is a
// data race that the race detector only catches when both paths fire in one
// test run; atomiccheck makes it a build-time error.
//
// The analyzer is interprocedural via the facts layer: each pass exports an
// atomicFact for every local object whose address is passed to a sync/atomic
// function, and a bareWriteFact for every exported, atomically-capable
// object the package writes without sync/atomic. A pass over an importing
// package then reports both directions of cross-package mixing — a bare
// write to a dependency's atomically-accessed counter, and an atomic access
// to a counter some dependency writes bare.
//
// Typed atomics (atomic.Int64 and friends) are safe by construction — every
// access is a method call, so there is no bare-write syntax to misuse — and
// are the repo's preferred style; atomiccheck exists to police the
// function-style residue (and to keep new code from introducing it
// half-atomically). Bare reads are not tracked: the write side is where the
// published-value invariant breaks, and read-side races surface under the
// race detector once writes are disciplined.
package atomiccheck

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// scopePackages are the import-path suffixes the analyzer applies to: the
// concurrent service layer, where function-style atomics plausibly appear.
// The simulation core is single-threaded per tile by design (sharecheck's
// territory) and psim's barrier uses typed atomics only.
var scopePackages = []string{
	"internal/runner",
	"internal/stashd",
	"internal/fleet",
	"internal/flight",
}

// Analyzer is the mixed-atomic-access check.
var Analyzer = &analysis.Analyzer{
	Name: "atomiccheck",
	Doc: "a field or package var accessed via sync/atomic anywhere must be accessed " +
		"atomically everywhere; bare writes mixed with atomic ops are reported in " +
		"both directions across packages",
	AppliesTo: AppliesTo,
	FactTypes: []analysis.Fact{new(atomicFact), new(bareWriteFact)},
	Run:       run,
}

// AppliesTo scopes the analyzer to the service layer by import-path suffix.
func AppliesTo(pkgPath string) bool {
	for _, s := range scopePackages {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// atomicFact marks an object whose address is passed to a function-style
// sync/atomic call somewhere in its own package.
type atomicFact struct{}

func (*atomicFact) AFact() {}

// bareWriteFact marks an exported, atomically-capable object that its own
// package writes without sync/atomic, so importing packages can flag an
// atomic access to it.
type bareWriteFact struct {
	NWrites int
}

func (*bareWriteFact) AFact() {}

type accessSite struct {
	obj *types.Var
	pos token.Pos
	fn  string // the sync/atomic function, for atomic sites
}

func run(pass *analysis.Pass) error {
	var atomics, bares []accessSite
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn, arg := atomicCall(pass.TypesInfo, n); fn != nil {
					if v := addrRoot(pass.TypesInfo, arg); v != nil {
						atomics = append(atomics, accessSite{obj: v, pos: n.Pos(), fn: fn.Name()})
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if v := writeRoot(pass.TypesInfo, lhs); v != nil {
						bares = append(bares, accessSite{obj: v, pos: lhs.Pos()})
					}
				}
			case *ast.IncDecStmt:
				if v := writeRoot(pass.TypesInfo, n.X); v != nil {
					bares = append(bares, accessSite{obj: v, pos: n.X.Pos()})
				}
			}
			return true
		})
	}

	// Export facts about this package's own objects.
	localAtomic := map[*types.Var]bool{}
	for _, a := range atomics {
		if a.obj.Pkg() == pass.Pkg && !localAtomic[a.obj] {
			localAtomic[a.obj] = true
			pass.ExportObjectFact(a.obj, &atomicFact{})
		}
	}
	localBare := map[*types.Var]int{}
	for _, b := range bares {
		if b.obj.Pkg() == pass.Pkg {
			localBare[b.obj]++
		}
	}
	for obj, n := range localBare {
		if obj.Exported() && atomicCapable(obj.Type()) {
			pass.ExportObjectFact(obj, &bareWriteFact{NWrites: n})
		}
	}

	// Bare write to an atomically-accessed object: local atomic set, or an
	// imported atomicFact from the object's own package.
	for _, b := range bares {
		mixed := localAtomic[b.obj]
		if !mixed && b.obj.Pkg() != pass.Pkg {
			var f atomicFact
			mixed = pass.ImportObjectFact(b.obj, &f)
		}
		if mixed {
			pass.Reportf(b.pos, "bare write to %s, which is accessed with sync/atomic elsewhere; every access must be atomic (prefer a typed atomic.Int64)", objDesc(pass, b.obj))
		}
	}
	// Atomic access to an object its own package writes bare. Local mixing
	// already reported at the write sites above; this covers the imported
	// direction, where the bare writes live in a package already analyzed.
	for _, a := range atomics {
		if a.obj.Pkg() == pass.Pkg {
			continue
		}
		var f bareWriteFact
		if pass.ImportObjectFact(a.obj, &f) {
			pass.Reportf(a.pos, "atomic.%s of %s, which package %s writes without sync/atomic (%d bare write(s)); every access must be atomic", a.fn, objDesc(pass, a.obj), a.obj.Pkg().Name(), f.NWrites)
		}
	}
	return nil
}

// atomicCall returns the sync/atomic function a call invokes and its address
// argument, or nil. Only function-style calls count — typed-atomic methods
// are safe by construction.
func atomicCall(ti *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	fn, ok := ti.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil, nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil, nil // a method on atomic.Int64 etc.
	}
	if len(call.Args) == 0 {
		return nil, nil
	}
	return fn, call.Args[0]
}

// addrRoot resolves &expr to the field or package variable whose address is
// taken, or nil.
func addrRoot(ti *types.Info, arg ast.Expr) *types.Var {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	return writeRoot(ti, u.X)
}

// writeRoot resolves the written expression to a struct field or package
// variable (the objects facts can attach to), or nil for locals.
func writeRoot(ti *types.Info, x ast.Expr) *types.Var {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, ok := ti.Uses[x].(*types.Var)
		if !ok {
			if v, ok = ti.Defs[x].(*types.Var); !ok {
				return nil
			}
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Origin()
		}
		return nil
	case *ast.SelectorExpr:
		if sel, ok := ti.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v.Origin()
			}
			return nil
		}
		if v, ok := ti.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Origin()
			}
		}
		return nil
	case *ast.IndexExpr:
		return writeRoot(ti, x.X)
	case *ast.StarExpr:
		return writeRoot(ti, x.X)
	}
	return nil
}

// atomicCapable reports whether a type could be the referent of a
// function-style sync/atomic call (the integer/pointer word kinds).
func atomicCapable(t types.Type) bool {
	switch b := t.Underlying().(type) {
	case *types.Basic:
		switch b.Kind() {
		case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr:
			return true
		}
	case *types.Pointer:
		return true
	}
	return false
}

func objDesc(pass *analysis.Pass, obj types.Object) string {
	pos := pass.Fset.Position(obj.Pos())
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	return fmt.Sprintf("%s%s (%s:%d)", pkg, obj.Name(), filepath.Base(pos.Filename), pos.Line)
}
