package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
)

// Fact is a typed claim an analyzer exports about a package-level
// function or method — "this function observes shutdown" — for
// importing packages to consume. Fact types must be
// JSON-round-trippable structs: the store keeps every fact as its JSON
// encoding, so an importer decodes its own copy and can never mutate
// the exporter's.
type Fact interface{ AFact() }

// factKey identifies one fact: the object it describes and the fact's
// concrete type. Objects are keyed by their fully-qualified name
// (types.Func.FullName covers both "pkg.F" and "(pkg.T).M").
type factKey struct {
	Obj  string
	Type string
}

// factStore holds every fact exported during a run, shared across all
// packages and analyzers.
type factStore struct {
	m map[factKey]json.RawMessage
}

func newFactStore() *factStore {
	return &factStore{m: make(map[factKey]json.RawMessage)}
}

// objFactName returns the fact key for obj, or "" when
// obj is not a package-level function/method (the only objects facts
// may describe).
func objFactName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.FullName()
}

func factTypeName(f Fact) string {
	return reflect.TypeOf(f).String()
}

func (s *factStore) export(analyzer string, obj types.Object, f Fact) {
	name := objFactName(obj)
	if name == "" {
		panic(fmt.Sprintf("thermlint: %s exported a fact for non-function object %v", analyzer, obj))
	}
	data, err := json.Marshal(f)
	if err != nil {
		panic(fmt.Sprintf("thermlint: %s fact %T not marshalable: %v", analyzer, f, err))
	}
	s.m[factKey{Obj: name, Type: factTypeName(f)}] = data
}

func (s *factStore) importInto(analyzer string, obj types.Object, ptr Fact) bool {
	name := objFactName(obj)
	if name == "" {
		return false
	}
	data, ok := s.m[factKey{Obj: name, Type: factTypeName(ptr)}]
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, ptr); err != nil {
		panic(fmt.Sprintf("thermlint: %s fact %T not unmarshalable: %v", analyzer, ptr, err))
	}
	return true
}
