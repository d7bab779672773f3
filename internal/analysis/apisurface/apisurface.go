// Package apisurface enforces the clean public surface of the censor,
// scenario, monitor, and netbridge packages: no repro/internal type may
// appear in an exported signature, exported struct field, exported var,
// or type declaration.
// The option/scenario layer exists precisely so external callers can
// build any world from JSON alone; an internal type in the surface would
// couple them to packages the module forbids them to import.
//
// It is the analyzer form of the hand-rolled AST walk that used to live
// in censor/scenario_test.go. The documented oracle escape hatches —
// Session.World, Vantage.World, Vantage.Probe — carry explicit
// //repolint:allow apisurface waivers at their declarations, so the
// exceptions are visible in the source they except.
package apisurface

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the apisurface pass.
var Analyzer = &analysis.Analyzer{
	Name: "apisurface",
	Key:  "apisurface",
	Doc: "forbid repro/internal types in the exported surface of the public " +
		"censor, scenario, monitor, and netbridge packages",
	Run: run,
}

// publicPkgs is the built-in opt-in set; other packages opt in with a
// //repolint:public file directive.
var publicPkgs = map[string]bool{
	"repro/censor":    true,
	"repro/scenario":  true,
	"repro/monitor":   true,
	"repro/netbridge": true,
}

func run(pass *analysis.Pass) error {
	if !publicPkgs[pass.Pkg.Path()] && !pass.Dirs.Marked("public") {
		return nil
	}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			reportLeaks(pass, o.Pos(), "func "+name, o.Type())
		case *types.Var:
			reportLeaks(pass, o.Pos(), "var "+name, o.Type())
		case *types.Const:
			reportLeaks(pass, o.Pos(), "const "+name, o.Type())
		case *types.TypeName:
			checkTypeName(pass, o)
		}
	}
	// type Foo = internal.Bar / type Foo internal.Bar erase the reference
	// in the type structure, so catch direct named RHS at the AST level.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				rhs := ts.Type
				if star, ok := rhs.(*ast.StarExpr); ok {
					rhs = star.X
				}
				if sel, ok := rhs.(*ast.SelectorExpr); ok {
					if tn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.TypeName); ok && internalPkg(tn.Pkg()) {
						pass.Reportf(ts.Name.Pos(), "exported type %s is declared from internal type %s", ts.Name.Name, typeString(tn.Type()))
					}
				}
			}
		}
	}
	return nil
}

// checkTypeName walks an exported named type's public face: exported (and
// embedded) struct fields, exported interface methods, the structure of
// other underlying types, and every exported method's signature.
func checkTypeName(pass *analysis.Pass, tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		// Alias: the aliased type is the whole surface.
		reportLeaks(pass, tn.Pos(), "type "+tn.Name(), tn.Type())
		return
	}
	name := tn.Name()
	switch u := named.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() && !f.Embedded() {
				continue
			}
			reportLeaks(pass, f.Pos(), "field "+name+"."+f.Name(), f.Type())
		}
	case *types.Interface:
		for i := 0; i < u.NumExplicitMethods(); i++ {
			m := u.ExplicitMethod(i)
			if m.Exported() {
				reportLeaks(pass, m.Pos(), "method "+name+"."+m.Name(), m.Type())
			}
		}
	default:
		reportLeaks(pass, tn.Pos(), "type "+name, named.Underlying())
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Exported() {
			reportLeaks(pass, m.Pos(), "method "+name+"."+m.Name(), m.Type())
		}
	}
}

// reportLeaks reports every internal named type reachable through t's
// structure (stopping at named types, which are surfaces of their own).
func reportLeaks(pass *analysis.Pass, pos token.Pos, what string, t types.Type) {
	for _, leak := range collectLeaks(t, map[types.Type]bool{}) {
		pass.Reportf(pos, "exported %s references internal type %s", what, leak)
	}
}

func collectLeaks(t types.Type, seen map[types.Type]bool) []string {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if seen[t] {
		return nil
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if internalPkg(t.Obj().Pkg()) {
			return []string{typeString(t)}
		}
		return nil
	case *types.Pointer:
		return collectLeaks(t.Elem(), seen)
	case *types.Slice:
		return collectLeaks(t.Elem(), seen)
	case *types.Array:
		return collectLeaks(t.Elem(), seen)
	case *types.Chan:
		return collectLeaks(t.Elem(), seen)
	case *types.Map:
		return append(collectLeaks(t.Key(), seen), collectLeaks(t.Elem(), seen)...)
	case *types.Signature:
		var out []string
		for i := 0; i < t.Params().Len(); i++ {
			out = append(out, collectLeaks(t.Params().At(i).Type(), seen)...)
		}
		for i := 0; i < t.Results().Len(); i++ {
			out = append(out, collectLeaks(t.Results().At(i).Type(), seen)...)
		}
		return out
	case *types.Struct:
		var out []string
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if f.Exported() || f.Embedded() {
				out = append(out, collectLeaks(f.Type(), seen)...)
			}
		}
		return out
	case *types.Interface:
		var out []string
		for i := 0; i < t.NumEmbeddeds(); i++ {
			out = append(out, collectLeaks(t.EmbeddedType(i), seen)...)
		}
		for i := 0; i < t.NumExplicitMethods(); i++ {
			if m := t.ExplicitMethod(i); m.Exported() {
				out = append(out, collectLeaks(m.Type(), seen)...)
			}
		}
		return out
	}
	return nil
}

func internalPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return strings.Contains(pkg.Path(), "/internal/") || strings.HasSuffix(pkg.Path(), "/internal")
}

func typeString(t types.Type) string {
	return types.TypeString(t, nil)
}
