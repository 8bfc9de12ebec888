package obs

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestNilHandlesAreNoOps checks the package's nil-receiver contract by
// calling it: every exported method of every handle type runs on a nil
// receiver with zero-valued arguments without panicking, and every
// http.Handler one returns serves the sidecar's endpoints.
func TestNilHandlesAreNoOps(t *testing.T) {
	handles := []any{
		(*Obs)(nil), (*Registry)(nil), (*Counter)(nil), (*Gauge)(nil),
		(*Histogram)(nil), (*Tracer)(nil), (*Span)(nil), (*Logger)(nil),
	}
	for _, h := range handles {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumMethod(); i++ {
			name := "(" + v.Type().String() + ")." + v.Type().Method(i).Name
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			var out []reflect.Value
			call := m.Call
			if m.Type().IsVariadic() {
				call = m.CallSlice // the zero variadic tail is a nil slice
			}
			if !noPanic(t, name+" on a nil receiver", func() { out = call(args) }) {
				continue
			}
			for _, o := range out {
				hh, ok := o.Interface().(http.Handler)
				if !ok {
					continue
				}
				for _, target := range []string{"/metrics", "/metrics?format=json", "/debug/trace", "/debug/trace?n=1", "/debug/trace?id=" + IDString(1)} {
					noPanic(t, name+"'s handler serving "+target, func() {
						hh.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", target, nil))
					})
				}
			}
		}
	}
}

// noPanic runs fn, reporting a panic as a failure of what.
func noPanic(t *testing.T, what string, fn func()) (ok bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panics: %v", what, r)
		}
	}()
	fn()
	return true
}
