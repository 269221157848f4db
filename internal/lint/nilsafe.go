package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"vc2m/internal/lintkit"
)

// HookSpec registers one family of instrumentation hook types with the
// nilsafe analyzer. Exactly one of Type or Interface is set:
//
//   - Type names a concrete hook type (e.g. metrics.Recorder) checked
//     directly;
//   - Interface names an interface (e.g. provenance.Sink); every named type
//     whose pointer implements it is a hook.
type HookSpec struct {
	// Pkg is the import path defining Type or Interface.
	Pkg string
	// Type is a concrete hook type's name.
	Type string
	// Interface is a hook interface's name.
	Interface string
}

// DefaultHooks are the repo's registered instrumentation hooks: every
// provenance.Sink implementation (including unexported ones like the
// allocation server's stageSink), the simulator's trace.Memory recorder,
// the metrics.Recorder, the provenance.Recorder, and the observability
// layer's obs.Span and obs.Logger handles. Their documented contract is that a nil receiver is
// the disabled state and every method is a safe no-op on it.
var DefaultHooks = []HookSpec{
	{Pkg: "vc2m/internal/trace", Type: "Memory"},
	{Pkg: "vc2m/internal/metrics", Type: "Recorder"},
	{Pkg: "vc2m/internal/provenance", Interface: "Sink"},
	{Pkg: "vc2m/internal/provenance", Type: "Recorder"},
	{Pkg: "vc2m/internal/obs", Type: "Span"},
	{Pkg: "vc2m/internal/obs", Type: "Logger"},
}

// NilSafe checks, for every registered hook type, that each exported
// pointer-receiver method begins with a nil-receiver guard, so the
// zero-cost-when-off contract can never regress silently. Accepted guard
// shapes, as the method's first statement:
//
//	if r == nil { ... }        // or r != nil
//	return r != nil            // predicate methods like Enabled
//
// An empty method body is trivially nil-safe and accepted. The check is
// mandatory — there is no suppression directive — because a single
// unguarded method turns "tracing off" into a crash.
var NilSafe = NewNilSafe(DefaultHooks)

// NewNilSafe builds a nilsafe analyzer over a custom hook registry; tests
// use it to point the analyzer at fixture types.
func NewNilSafe(hooks []HookSpec) *lintkit.Analyzer {
	a := &lintkit.Analyzer{
		Name: "nilsafe",
		Doc: "requires every exported pointer-receiver method on registered hook types " +
			"(provenance.Sink implementations, metrics.Recorder) to begin with a nil-receiver guard",
	}
	a.Run = func(pass *lintkit.Pass) { runNilSafe(pass, hooks) }
	return a
}

func runNilSafe(pass *lintkit.Pass, hooks []HookSpec) {
	concrete, ifaces := resolveHooks(pass.Pkg, hooks)
	if len(concrete) == 0 && len(ifaces) == 0 {
		return
	}
	isHook := func(named *types.Named) bool {
		if concrete[named.Obj()] {
			return true
		}
		for _, iface := range ifaces {
			if types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || !fn.Name.IsExported() || fn.Body == nil {
				continue
			}
			named := pointerReceiverBase(pass, fn.Recv.List[0])
			if named == nil || named.Obj().Pkg() != pass.Pkg || !isHook(named) {
				continue
			}
			if len(fn.Body.List) == 0 {
				continue // an empty body cannot dereference the receiver
			}
			recvObj := receiverVar(pass, fn.Recv.List[0])
			if recvObj == nil {
				pass.Reportf(fn.Pos(),
					"exported hook method (*%s).%s has an unnamed receiver; name it and guard nil first",
					named.Obj().Name(), fn.Name.Name)
				continue
			}
			if beginsWithNilGuard(pass, fn.Body.List[0], recvObj) {
				continue
			}
			pass.Reportf(fn.Pos(),
				"exported hook method (*%s).%s must begin with a nil-receiver guard "+
					"(hook types promise to be safe no-ops when nil)",
				named.Obj().Name(), fn.Name.Name)
		}
	}
}

// resolveHooks maps the registry onto pkg's type universe: the set of
// concrete hook type names and the hook interfaces, drawn from pkg itself
// or its direct imports.
func resolveHooks(pkg *types.Package, hooks []HookSpec) (map[*types.TypeName]bool, []*types.Interface) {
	lookup := func(path, name string) types.Object {
		var in *types.Package
		if pkg.Path() == path {
			in = pkg
		} else {
			for _, imp := range pkg.Imports() {
				if imp.Path() == path {
					in = imp
					break
				}
			}
		}
		if in == nil {
			return nil
		}
		return in.Scope().Lookup(name)
	}
	concrete := map[*types.TypeName]bool{}
	var ifaces []*types.Interface
	for _, h := range hooks {
		switch {
		case h.Type != "":
			if tn, ok := lookup(h.Pkg, h.Type).(*types.TypeName); ok {
				concrete[tn] = true
			}
		case h.Interface != "":
			if tn, ok := lookup(h.Pkg, h.Interface).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	return concrete, ifaces
}

// pointerReceiverBase returns the named type N when the receiver is *N
// (possibly generic), and nil for value receivers.
func pointerReceiverBase(pass *lintkit.Pass, recv *ast.Field) *types.Named {
	t := pass.TypeOf(recv.Type)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	named, _ := ptr.Elem().(*types.Named)
	return named
}

// receiverVar returns the receiver's variable object, or nil when the
// receiver is unnamed or blank.
func receiverVar(pass *lintkit.Pass, recv *ast.Field) types.Object {
	if len(recv.Names) != 1 || recv.Names[0].Name == "_" {
		return nil
	}
	return pass.Info.Defs[recv.Names[0]]
}

// beginsWithNilGuard reports whether stmt is a recognized nil guard for
// the receiver object recv.
func beginsWithNilGuard(pass *lintkit.Pass, stmt ast.Stmt, recv types.Object) bool {
	isNilCompare := func(e ast.Expr) bool {
		bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return false
		}
		isRecv := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && pass.Info.Uses[id] == recv
		}
		isNil := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			if !ok {
				return false
			}
			_, isNilObj := pass.Info.Uses[id].(*types.Nil)
			return isNilObj
		}
		return (isRecv(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isRecv(bin.Y))
	}
	switch s := stmt.(type) {
	case *ast.IfStmt:
		return s.Init == nil && isNilCompare(s.Cond)
	case *ast.ReturnStmt:
		// Predicate methods may guard by returning the comparison itself,
		// e.g. Enabled() bool { return r != nil }.
		for _, res := range s.Results {
			found := false
			ast.Inspect(res, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && isNilCompare(e) {
					found = true
					return false
				}
				return true
			})
			if found {
				return true
			}
		}
	}
	return false
}
