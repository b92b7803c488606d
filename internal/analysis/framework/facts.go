package framework

import (
	"encoding/gob"
	"errors"
	"fmt"
	"go/token"
	"go/types"
	"io"
	"reflect"
	"sort"
)

// Fact is a typed value an analyzer attaches to a program object so later
// passes — over the same package or over packages that import it — can
// retrieve it. The shape mirrors golang.org/x/tools/go/analysis.Fact with
// one deliberate difference: facts are keyed by stable string object keys
// (ObjectKey) rather than types.Object identity, because the driver
// type-checks each root package from source against the *export data* of
// its dependencies, so the types.Object for a function is not pointer-
// identical between the pass that analyzed its package and the pass that
// sees it through an import.
//
// Fact types must be pointers to gob-encodable structs: the unitchecker
// driver serializes the fact store through the vet .vetx files so facts
// survive `go vet -vettool`'s one-process-per-package execution model.
type Fact interface {
	AFact() // dummy method to mark the type as a Fact
}

// ObjectFact is one (object key, fact) pair, the enumeration unit of
// AllFactsOf.
type ObjectFact struct {
	Key  string
	Fact Fact
}

// ObjectKey returns the stable cross-package key of a package-level object:
//
//	pkgpath.Name          functions, vars, types
//	pkgpath.(Recv).Name   methods (pointer receivers are stripped)
//
// Objects without a package (builtins, locals whose parent is not the
// package scope) key as "" — facts cannot be attached to them.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if orig := fn.Origin(); orig != nil {
			fn = orig
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if name, ok := recvTypeName(sig.Recv().Type()); ok {
				return fn.Pkg().Path() + ".(" + name + ")." + fn.Name()
			}
			return "" // method on an unnamed receiver (interface literal etc.)
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	// Only package-scope objects have stable keys.
	if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// FieldKey returns the stable key of a struct field reached through a value
// of type recv: "pkgpath.(Type).field". It returns "" when recv (after
// pointer stripping) is not a named type — fields of anonymous structs have
// no stable cross-package identity.
func FieldKey(recv types.Type, field *types.Var) string {
	name, ok := recvTypeName(recv)
	if !ok || field.Pkg() == nil {
		return ""
	}
	return field.Pkg().Path() + ".(" + name + ")." + field.Name()
}

// recvTypeName resolves t (stripping one pointer) to its named type's name.
func recvTypeName(t types.Type) (string, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name(), true
	case *types.Alias:
		return recvTypeName(types.Unalias(t))
	}
	return "", false
}

// factKey identifies one stored fact: the object key plus the fact's
// concrete type, so one object can carry facts of several types.
type factKey struct {
	key string
	typ reflect.Type
}

// Program is the whole-run state shared by every pass: the fact store and
// per-analyzer scratch state for analyzers whose diagnostics need a global
// view (Analyzer.Finish). The driver creates one Program per Run and
// processes packages in dependency order, so by the time a pass imports a
// fact, the exporting package has already been analyzed.
type Program struct {
	// Fset is the single file set every analyzed package was parsed into.
	Fset *token.FileSet

	facts map[factKey]Fact
	state map[*Analyzer]interface{}
}

// NewProgram returns an empty program over fset.
func NewProgram(fset *token.FileSet) *Program {
	return &Program{
		Fset:  fset,
		facts: make(map[factKey]Fact),
		state: make(map[*Analyzer]interface{}),
	}
}

// State returns the program-wide mutable state of analyzer a, creating it
// with init on first use. Analyzers use it to accumulate cross-package
// structures (lock graphs, access records) their Finish hook folds into
// diagnostics once every package has been seen.
func (prog *Program) State(a *Analyzer, init func() interface{}) interface{} {
	s, ok := prog.state[a]
	if !ok {
		s = init()
		prog.state[a] = s
	}
	return s
}

// exportFact stores fact under key, replacing any previous fact of the
// same concrete type.
func (prog *Program) exportFact(key string, fact Fact) {
	prog.facts[factKey{key, reflect.TypeOf(fact)}] = fact
}

// importFact copies the stored fact of fact's concrete type for key into
// *fact and reports whether one was found.
func (prog *Program) importFact(key string, fact Fact) bool {
	stored, ok := prog.facts[factKey{key, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// allFacts returns every stored fact with fact's concrete type, sorted by
// key for deterministic iteration.
func (prog *Program) allFacts(fact Fact) []ObjectFact {
	typ := reflect.TypeOf(fact)
	var out []ObjectFact
	for k, f := range prog.facts {
		if k.typ == typ {
			out = append(out, ObjectFact{Key: k.key, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ExportKeyedFact attaches fact to an object key (ObjectKey, or FieldKey
// for struct fields) for passes over later packages. An empty key — an
// object without a stable key, like a local or a builtin — is silently
// skipped, as no later pass could name it anyway.
func (p *Pass) ExportKeyedFact(key string, fact Fact) {
	if key == "" || p.Prog == nil {
		return
	}
	p.Prog.exportFact(key, fact)
}

// ImportKeyedFact copies the fact of fact's concrete type attached to key
// into *fact, reporting whether one exists.
func (p *Pass) ImportKeyedFact(key string, fact Fact) bool {
	if key == "" || p.Prog == nil {
		return false
	}
	return p.Prog.importFact(key, fact)
}

// AllFactsOf enumerates every stored fact whose concrete type matches
// fact's, across all packages analyzed so far plus any imported through
// serialized fact files, for Analyzer.Finish hooks.
func (prog *Program) AllFactsOf(fact Fact) []ObjectFact {
	return prog.allFacts(fact)
}

// gobFact is the serialized form of one fact-store entry.
type gobFact struct {
	Key  string
	Fact Fact
}

// RegisterFactTypes registers the declared fact types of every analyzer
// (transitively through Requires) with encoding/gob, a precondition for
// EncodeFacts/DecodeFacts. Registration is idempotent per type name.
func RegisterFactTypes(analyzers []*Analyzer) {
	seen := map[string]bool{}
	var walk func(a *Analyzer)
	walk = func(a *Analyzer) {
		if seen[a.Name] {
			return
		}
		seen[a.Name] = true
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
		for _, req := range a.Requires {
			walk(req)
		}
	}
	for _, a := range analyzers {
		walk(a)
	}
}

// EncodeFacts writes the whole fact store to w (gob). The unitchecker
// driver calls it to produce the package's .vetx output so dependent
// packages, vetted in separate processes, can import the facts.
func (prog *Program) EncodeFacts(w io.Writer) error {
	out := make([]gobFact, 0, len(prog.facts))
	for k, f := range prog.facts {
		out = append(out, gobFact{Key: k.key, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return fmt.Sprint(reflect.TypeOf(out[i].Fact)) < fmt.Sprint(reflect.TypeOf(out[j].Fact))
	})
	return gob.NewEncoder(w).Encode(out)
}

// DecodeFacts merges a fact stream produced by EncodeFacts into the store.
// An empty stream (PR 3's fact-free .vetx files, or a dependency vetted by
// an older tool) decodes to nothing and is not an error.
func (prog *Program) DecodeFacts(r io.Reader) error {
	var in []gobFact
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return err
	}
	for _, gf := range in {
		if gf.Fact != nil {
			prog.exportFact(gf.Key, gf.Fact)
		}
	}
	return nil
}
