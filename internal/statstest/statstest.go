// Package statstest checks a counter struct's field list: the single
// list of counter pointers that the struct's add, emit and digest code
// loops over. Only tests import it.
package statstest

import (
	"reflect"
	"testing"
)

var uint64Type = reflect.TypeOf(uint64(0))

// CheckFieldList fails t unless list holds a pointer to every uint64
// field of the struct that structPtr points to exactly once, and nothing
// else, and names gives each entry a distinct, non-empty series name.
func CheckFieldList(t testing.TB, structPtr any, list []*uint64, names []string) {
	t.Helper()
	v := reflect.ValueOf(structPtr).Elem()
	typ := v.Type()
	var want []*uint64
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == uint64Type {
			want = append(want, f.Addr().Interface().(*uint64))
		}
	}
	count := make([]int, len(want))
	for i, p := range list {
		j := indexOf(want, p)
		if j < 0 {
			t.Errorf("%s field list entry %d is not a uint64 field of %s", typ, i, typ)
			continue
		}
		count[j]++
	}
	for j, p := range want {
		if count[j] != 1 {
			t.Errorf("%s.%s appears %d times in the field list, want 1", typ, fieldName(v, p), count[j])
		}
	}
	if len(names) != len(list) {
		t.Errorf("%s: %d series names for %d fields", typ, len(names), len(list))
	}
	for i, name := range names {
		if name == "" {
			t.Errorf("%s: series name %d is empty", typ, i)
		}
		for _, other := range names[:i] {
			if name == other {
				t.Errorf("%s: series name %q is used twice", typ, name)
			}
		}
	}
}

func indexOf(ps []*uint64, p *uint64) int {
	for i, q := range ps {
		if q == p {
			return i
		}
	}
	return -1
}

func fieldName(v reflect.Value, p *uint64) string {
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Type() == uint64Type && f.Addr().Interface().(*uint64) == p {
			return v.Type().Field(i).Name
		}
	}
	return "?"
}
