// Package httpjson holds the JSON HTTP conventions thermherdd and the
// herd gateway share, so both speak one wire format: indented JSON
// bodies, a uniform {"error": ...} document, and a JSON 405 with an
// Allow header for every wrong method on a known path.
package httpjson

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// ErrorDoc is the uniform error body.
type ErrorDoc struct {
	Error string `json:"error"`
}

// Write writes v as indented JSON with the given HTTP status.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Error writes an ErrorDoc with a formatted message.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	Write(w, status, ErrorDoc{Error: fmt.Sprintf(format, args...)})
}

// Route registers each method's handler on mux under "METHOD path" plus
// a methodless catch-all, so every other verb on a known path gets a
// uniform JSON 405 carrying an Allow header (the Go 1.22 mux's own 405
// is plain text).
func Route(mux *http.ServeMux, path string, handlers map[string]http.HandlerFunc) {
	methods := make([]string, 0, len(handlers)+1)
	for m, h := range handlers {
		mux.HandleFunc(m+" "+path, h)
		methods = append(methods, m)
		if m == http.MethodGet {
			methods = append(methods, http.MethodHead) // the mux serves HEAD via GET
		}
	}
	sort.Strings(methods)
	allow := strings.Join(methods, ", ")
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		Error(w, http.StatusMethodNotAllowed, "method %s not allowed on %s (allow: %s)", r.Method, path, allow)
	})
}
