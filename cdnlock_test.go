package respectorigin

import (
	"fmt"
	"go/ast"
	"go/types"
	"testing"
)

// cdnReadMethods are the cdn.CDN methods every request calls, from as
// many goroutines as a planned deployment day or loadgen runs.
var cdnReadMethods = []string{"Lookup", "LookupTTL", "CertSANs", "OriginSet", "SupportsH3", "Reachable", "phase"}

// TestCDNReadPathTakesNoLock holds the CDN's read path to its published
// view: no read method of cdn.CDN, nor any function or method of
// internal/cdn it names, directly or not, selects a sync.Mutex or
// sync.RWMutex or calls a method of one. A call through an interface is
// followed to every cdn method that implements it, so the check errs on
// the side of failing.
func TestCDNReadPathTakesNoLock(t *testing.T) {
	m := loadRepo(t)
	cdn := m.pkg("internal/cdn")
	if cdn == nil {
		t.Fatal("internal/cdn is not loaded")
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range cdn.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[m.info.Defs[fd.Name].(*types.Func)] = fd
			}
		}
	}
	cdnType := cdn.types.Scope().Lookup("CDN").Type().(*types.Named)
	var reads []*types.Func
	for _, name := range cdnReadMethods {
		if obj, _, _ := types.LookupFieldOrMethod(cdnType, true, cdn.types, name); obj != nil {
			reads = append(reads, obj.(*types.Func))
		}
	}
	if len(reads) != len(cdnReadMethods) {
		t.Fatalf("found %d of the %d CDN read methods %v", len(reads), len(cdnReadMethods), cdnReadMethods)
	}
	// reached lists the cdn functions and methods fn names: the one an
	// identifier resolves to, or, for an interface method, every cdn
	// method of that name whose receiver implements the interface.
	reached := func(fn *types.Func) []*types.Func {
		if _, ok := decls[fn]; ok {
			return []*types.Func{fn}
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return nil
		}
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		var out []*types.Func
		for impl := range decls {
			recv := impl.Type().(*types.Signature).Recv()
			if recv != nil && impl.Name() == fn.Name() && types.Implements(recv.Type(), iface) {
				out = append(out, impl)
			}
		}
		return out
	}
	for _, read := range reads {
		seen := map[*types.Func]bool{}
		var walk func(fn *types.Func, path string)
		walk = func(fn *types.Func, path string) {
			if seen[fn] {
				return
			}
			seen[fn] = true
			ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if sel := m.info.Selections[n]; sel != nil && (isLock(sel.Obj().Type()) || isLock(sel.Recv())) {
						t.Errorf("%s: CDN.%s reaches a lock (via %s)", m.position(n.Pos()), read.Name(), path)
					}
				case *ast.Ident:
					if next, ok := m.info.Uses[n].(*types.Func); ok {
						for _, fn := range reached(next) {
							walk(fn, fmt.Sprintf("%s → %s", path, fn.Name()))
						}
					}
				}
				return true
			})
		}
		walk(read, read.Name())
	}
}

// isLock reports whether t is a sync.Mutex or sync.RWMutex, or a pointer
// to one.
func isLock(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}
