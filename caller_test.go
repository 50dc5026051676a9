package respectorigin

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// callerAllowlist names the exported names under internal/ that stand
// without a non-test user, the unexported funcs and methods there that
// stand without a non-test caller, and the option fields that non-test
// Go sets to one value only, each with why. The only reasons are: a
// correctness oracle that tests compare against, a DESIGN.md §6 ablation
// bench in bench_test.go, a hook whose only job is to let a test observe
// or substitute, and the method that seals an interface to its
// package's types.
var callerAllowlist = map[string]string{
	"conformance.NewFlowChecker":                "oracle: h2's tests hold every flow-control window to this RFC 9113 mirror",
	"conformance.FlowChecker.Check":             "oracle: h2's tests hold every flow-control window to this RFC 9113 mirror",
	"conformance.FlowChecker.CheckConservation": "oracle: h2's tests hold every flow-control window to this RFC 9113 mirror",
	"conformance.FlowChecker.WentNegative":      "oracle: h2's tests hold every flow-control window to this RFC 9113 mirror",
	"privacy.Analyze":                           "oracle: one page's §6.2 exposure, host by host, that privacy's tests check against a reconstructed page",
	"privacy.Exposure.LeakedHosts":              "oracle: the leaked-host set of privacy.Analyze",
	"hpack.Encoder.SetHuffman":                  "ablation §6.1: BenchmarkAblationHuffman runs the encoder with Huffman coding on and off",
	"certs.Leaf.TLSRecords":                     "ablation §6.5: BenchmarkAblationSANSize reads the TLS records a real chain needs",
	"h2.ClientConnOptions.FlowHook":             "hook: lets a test observe every flow-control transition (conformance.FlowChecker)",
	"h2.ClientConnOptions.VerifyOrigin":         "hook: lets a test substitute the certificate check over a transport without TLS",
	"h2.FrameHeader.header":                     "seal: Frame's one method, so only this package's frame types are Frames; tests read a frame's header through it",
	"cdn.LogPipeline.observeRecord":             "hook: lets a test log a logRecord, every §5.2 field of it, where the visit loop logs indexed logEntry values",
	"dns.Resolver.queryCount":                   "hook: lets a test observe how many queries a lookup sent, which is what the cache saves",
	"dns.Authority.queryCount":                  "hook: lets a test observe how many queries the authority answered",
}

// stdlibInterfaces are the standard-library interfaces, as package path
// and name, whose methods the standard library calls on the types here:
// a method that implements one of them has a caller there.
var stdlibInterfaces = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"io", "Reader"},
	{"io", "Writer"},
	{"io", "Closer"},
	{"net", "Error"},
	{"math/rand", "Source64"},
}

// reflectingPackages are the standard-library packages whose functions
// read a struct's fields by reflection: a field of a struct passed to
// one of them as an `any` is read.
var reflectingPackages = []string{"encoding/json", "fmt"}

// TestEveryExportHasACaller holds ROADMAP's "every exported name earns a
// user": no exported name declared in non-test Go under internal/ goes
// unused, no unexported func or method there goes uncalled, no field
// there goes unread, and no option field is set to one value only,
// unless callerAllowlist names it with a reason. Packages in
// testSupport and probeOnly are not gated, and testSupport's own Go uses
// nothing. The rules are exportFindings'.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadRepo(t)
	for _, f := range exportFindings(m, callerAllowlist, append(slices.Clone(testSupport), probeOnly...), testSupport) {
		t.Error(f)
	}
}

// exportFindings reports each exported name declared in m's non-test Go
// under internal/ (outside the packages notGated) that nothing uses, each
// unexported func, method and struct field there that nothing calls or
// reads, and each option field that non-test Go sets to one value only. Uses and writes are
// resolved objects, read from non-test Go of every package but those in
// noUser:
//   - A func, const, var or type is used when another package names it.
//     A type is also used when the signature of a used func or method,
//     or the type of a used field, var or const, mentions it.
//   - A method is used when a selection in another package resolves to
//     it, when its type implements an interface whose method of that
//     name is selected anywhere, or when it implements one of
//     stdlibInterfaces.
//   - An unexported func or method is used when its own package's
//     non-test Go names it outside its own declaration, so recursion is
//     no caller; a method also by the interface rule above.
//   - A field, exported or not, is used when it is read in any package:
//     selected outside an assignment target (a composite-literal key is
//     not a selection), or passed through on the way to a promoted field
//     or method. An embedded field is also read when a method promoted
//     through it implements an interface for its struct, as the method
//     rule counts interfaces. A field also counts as read when a value
//     of its struct, or of a type holding it, is passed as an `any` to a
//     function of reflectingPackages, and when its struct is a map key
//     (hashing reads every field).
//   - An option field is an exported field of a struct type whose name
//     ends in Config, Options or Params. Each keyed-literal entry for
//     it, each omission from a keyed literal of its type (a write of its
//     zero value) and each assignment to it is a write. It is a finding
//     when nothing writes it, or when every write is the same constant:
//     then it is a constant of the package that reads it, not an
//     option. A write of a non-constant value, an increment or taking
//     its address (`&cfg.F`, as flag binding does) keeps it an option.
//
// Neither rule reports an allowlisted name; an entry for a name that
// neither rule would report, or that is not declared, is a finding.
func exportFindings(m *module, allowlist map[string]string, notGated, noUser []string) []string {
	type decl struct {
		kind, key string
		option    bool
	}
	decls := map[types.Object]decl{}
	var embedders []*types.Named // struct types with an embedded field
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.rel, "internal/") || slices.Contains(notGated, p.rel) {
			continue
		}
		name := p.types.Name()
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if _, isFunc := obj.(*types.Func); obj.Exported() || isFunc {
				decls[obj] = decl{kind: objectKind(obj), key: name + "." + n}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				fn := named.Method(i)
				decls[fn] = decl{kind: "method", key: name + "." + n + "." + fn.Name()}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				options := strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Params")
				for i := range st.NumFields() {
					f := st.Field(i)
					decls[f] = decl{kind: "field", key: name + "." + n + "." + f.Name(), option: options && f.Exported()}
					if f.Embedded() {
						embedders = append(embedders, named)
					}
				}
			}
		}
	}

	// bodies spans each func's and method's declaration: a call from
	// inside its own body does not count as a caller.
	bodies := map[types.Object][2]token.Pos{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					bodies[m.info.Defs[fd.Name]] = [2]token.Pos{fd.Pos(), fd.End()}
				}
			}
		}
	}
	// calls reports whether a use at pos in package p of func or method
	// obj counts: an exported one needs a user in another package, an
	// unexported one a caller outside its own body.
	calls := func(obj types.Object, p *modPackage, pos token.Pos) bool {
		if obj.Exported() {
			return obj.Pkg() != p.types
		}
		span := bodies[obj]
		return pos < span[0] || pos >= span[1]
	}

	used := map[types.Object]bool{}             // named or called from another package, or a field read
	selected := map[string][]*types.Interface{} // interface methods selected, by name
	reflected := map[types.Type]bool{}
	var reflect func(types.Type)
	reflect = func(t types.Type) {
		if t == nil || reflected[t] {
			return
		}
		reflected[t] = true
		switch t := types.Unalias(t).(type) {
		case *types.Pointer:
			reflect(t.Elem())
		case *types.Slice:
			reflect(t.Elem())
		case *types.Array:
			reflect(t.Elem())
		case *types.Map:
			reflect(t.Key())
			reflect(t.Elem())
		case *types.Named:
			reflect(t.Underlying())
		case *types.Struct:
			for i := range t.NumFields() {
				used[t.Field(i).Origin()] = true
				reflect(t.Field(i).Type())
			}
		}
	}
	// written holds each option field's distinct constant writes;
	// variable marks the ones written a non-constant value.
	written := map[types.Object]map[string]bool{}
	variable := map[types.Object]bool{}
	write := func(f types.Object, value string) {
		switch {
		case !decls[f].option:
		case value == "":
			variable[f] = true
		case written[f] == nil:
			written[f] = map[string]bool{value: true}
		default:
			written[f][value] = true
		}
	}
	for _, p := range m.pkgs {
		if slices.Contains(noUser, p.rel) {
			continue
		}
		for _, f := range p.files {
			targets := assignmentTargets(f)
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					obj := m.info.Uses[n]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
					}
					if d, ok := decls[obj]; ok && d.kind != "method" && d.kind != "field" && (obj.Pkg() != p.types || d.kind == "func" && calls(obj, p, n.Pos())) {
						used[obj] = true
					}
				case *ast.SelectorExpr:
					sel := m.info.Selections[n]
					if sel == nil {
						return true
					}
					for _, f := range embeddedPath(sel) {
						used[f] = true
					}
					switch obj := sel.Obj().(type) {
					case *types.Var:
						if !targets[n] {
							used[obj.Origin()] = true
						}
					case *types.Func:
						recv := obj.Type().(*types.Signature).Recv().Type()
						if iface, ok := recv.Underlying().(*types.Interface); ok {
							if !slices.Contains(selected[obj.Name()], iface) {
								selected[obj.Name()] = append(selected[obj.Name()], iface)
							}
						} else if calls(obj.Origin(), p, n.Pos()) {
							used[obj.Origin()] = true
						}
					}
				case *ast.CallExpr:
					if fn := callee(m.info, n); fn != nil && fn.Pkg() != nil && slices.Contains(reflectingPackages, fn.Pkg().Path()) {
						sig := fn.Type().(*types.Signature)
						for i, arg := range n.Args {
							if isAny(paramType(sig, i)) {
								reflect(m.info.Types[arg].Type)
							}
						}
					}
				case *ast.CompositeLit:
					t := m.info.Types[n].Type
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem() // an element literal with &T elided
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					keyed := map[string]ast.Expr{}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							keyed[kv.Key.(*ast.Ident).Name] = kv.Value
						} else {
							keyed[st.Field(i).Name()] = elt
						}
					}
					for i := range st.NumFields() {
						f := st.Field(i).Origin()
						if v, ok := keyed[f.Name()]; ok {
							write(f, constantOf(m.info, v))
						} else {
							write(f, zeroOf(f.Type()))
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if f := selectedField(m.info, lhs); f != nil {
							value := ""
							if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
								value = constantOf(m.info, n.Rhs[i])
							}
							write(f, value)
						}
					}
				case *ast.IncDecStmt:
					if f := selectedField(m.info, n.X); f != nil {
						write(f, "")
					}
				case *ast.UnaryExpr:
					if f := selectedField(m.info, n.X); f != nil && n.Op == token.AND {
						write(f, "")
					}
				}
				return true
			})
		}
	}
	for _, tv := range m.info.Types {
		if mt, ok := types.Unalias(tv.Type).(*types.Map); ok {
			hashedFields(mt.Key(), func(f *types.Var) { used[f.Origin()] = true })
		}
	}
	for _, s := range stdlibInterfaces {
		var obj types.Object
		if s[0] == "" {
			obj = types.Universe.Lookup(s[1])
		} else if p := m.std[s[0]]; p != nil {
			obj = p.Scope().Lookup(s[1])
		}
		if obj == nil {
			continue // the module does not import it, so nothing here implements it for the library
		}
		iface := obj.Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			name := iface.Method(i).Name()
			selected[name] = append(selected[name], iface)
		}
	}
	implements := func(named types.Type, method string) bool {
		for _, iface := range selected[method] {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}
	for obj, d := range decls {
		if d.kind != "method" || used[obj] {
			continue
		}
		recv := obj.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		used[obj] = implements(recv, obj.Name())
	}
	// An embedded field is read when a method promoted through it
	// implements an interface for its struct.
	for _, named := range embedders {
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := range mset.Len() {
			sel := mset.At(i)
			if path := embeddedPath(sel); len(path) > 0 && implements(named, sel.Obj().Name()) {
				used[path[0]] = true
			}
		}
	}
	for obj, d := range decls {
		if _, ok := allowlist[d.key]; (ok || used[obj]) && d.kind != "type" && obj.Exported() {
			mentions(obj.Type(), func(tn *types.TypeName) { used[tn] = true })
		}
	}

	var findings []string
	declared := map[string]bool{}
	for obj, d := range decls {
		declared[d.key] = true
		fixed := d.option && !variable[obj] && len(written[obj]) <= 1
		_, allowed := allowlist[d.key]
		switch {
		case allowed && used[obj] && !fixed:
			findings = append(findings, fmt.Sprintf("%s is on the allowlist but passes without it: drop the entry", d.key))
		case allowed:
		case !used[obj] && d.kind == "field":
			findings = append(findings, fmt.Sprintf("%s: field %s is never read by non-test Go: delete it, with what writes it", m.position(obj.Pos()), d.key))
		case !used[obj] && !obj.Exported():
			findings = append(findings, fmt.Sprintf("%s: %s %s has no non-test caller in its package: move it to a test file, delete it, or allowlist it with a reason", m.position(obj.Pos()), d.kind, d.key))
		case !used[obj]:
			findings = append(findings, fmt.Sprintf("%s: %s %s has no non-test user outside its package: unexport it, delete it, or allowlist it with a reason", m.position(obj.Pos()), d.kind, d.key))
		case fixed && len(written[obj]) == 0:
			findings = append(findings, fmt.Sprintf("%s: option field %s is never set by non-test Go: make it a constant", m.position(obj.Pos()), d.key))
		case fixed:
			findings = append(findings, fmt.Sprintf("%s: option field %s is set to one value by non-test Go: make it a constant", m.position(obj.Pos()), d.key))
		}
	}
	for key := range allowlist {
		if !declared[key] {
			findings = append(findings, fmt.Sprintf("the allowlist names %s, which is not declared under internal/", key))
		}
	}
	if len(decls) == 0 || len(used) == 0 {
		findings = append(findings, fmt.Sprintf("empty scan: %d exported names, %d used; the load is broken", len(decls), len(used)))
	}
	slices.Sort(findings)
	return findings
}

// selectedField is the struct field x selects, or nil.
func selectedField(info *types.Info, x ast.Expr) types.Object {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// constantOf is the value x writes when it is a constant (or nil), as
// zeroOf spells a zero, and "" when it is not.
func constantOf(info *types.Info, x ast.Expr) string {
	tv := info.Types[x]
	switch {
	case tv.IsNil():
		return "zero"
	case tv.Value == nil:
		return ""
	case tv.Value.Kind() == constant.Int || tv.Value.Kind() == constant.Float:
		return constant.ToFloat(tv.Value).ExactString()
	}
	return tv.Value.ExactString()
}

// zeroOf is the zero value of t as constantOf spells it.
func zeroOf(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case b.Info()&types.IsBoolean != 0:
			return "false"
		case b.Info()&types.IsString != 0:
			return `""`
		case b.Info()&types.IsNumeric != 0:
			return "0"
		}
	}
	return "zero"
}

// objectKind names what obj declares: const, var, type or func.
func objectKind(obj types.Object) string {
	switch obj.(type) {
	case *types.Const:
		return "const"
	case *types.Var:
		return "var"
	case *types.TypeName:
		return "type"
	}
	return "func"
}

// assignmentTargets is the set of expressions in f that are assigned to
// or incremented, parentheses removed.
func assignmentTargets(f *ast.File) map[ast.Expr]bool {
	targets := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				targets[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			targets[ast.Unparen(n.X)] = true
		}
		return true
	})
	return targets
}

// embeddedPath lists the embedded fields a selection passes through on
// its way to a promoted field or method.
func embeddedPath(sel *types.Selection) []*types.Var {
	var path []*types.Var
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			break
		}
		path = append(path, st.Field(i).Origin())
		t = st.Field(i).Type()
	}
	return path
}

// callee is the func or method call calls by name, or nil when it calls
// a func value or converts a type.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel]
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// paramType is the type of the parameter that a call's argument i binds.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if sig.Variadic() && i >= params.Len()-1 {
		return params.At(params.Len() - 1).Type().(*types.Slice).Elem()
	}
	if i < params.Len() {
		return params.At(i).Type()
	}
	return nil
}

// isAny reports whether t is the empty interface.
func isAny(t types.Type) bool {
	iface, ok := t.(interface{ Underlying() types.Type })
	if !ok {
		return false
	}
	it, ok := iface.Underlying().(*types.Interface)
	return ok && it.Empty()
}

// mentions calls visit for each named type t spells out: t itself and
// the element, key, field, parameter and result types it is built from.
func mentions(t types.Type, visit func(*types.TypeName)) {
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			visit(t.Obj())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := range tuple.Len() {
					walk(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := range t.NumFields() {
				walk(t.Field(i).Type())
			}
		}
	}
	walk(t)
}

// hashedFields calls visit for each field of the struct t is, and of
// the structs and arrays those fields hold: every field a map keyed by t
// hashes.
func hashedFields(t types.Type, visit func(*types.Var)) {
	switch t := t.Underlying().(type) {
	case *types.Array:
		hashedFields(t.Elem(), visit)
	case *types.Struct:
		for i := range t.NumFields() {
			visit(t.Field(i))
			hashedFields(t.Field(i).Type(), visit)
		}
	}
}
