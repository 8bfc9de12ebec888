package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Handler returns the debug HTTP sidecar mux:
//
//	/metrics        — plain-text metric lines; ?format=json for a
//	                  structured Snapshot
//	/debug/trace    — JSON array of the most recent retained span
//	                  trees, locally started roots and joined request
//	                  spans alike (?n=K limits to the last K; a
//	                  malformed or negative K is a 400);
//	                  ?id=<16-hex-digit trace ID> instead returns every
//	                  retained span of that trace (404 if aged out)
//	/debug/pprof/…  — the standard net/http/pprof endpoints
//
// The handler is safe to serve while the pipeline is running; snapshots
// and trace exports never block metric or span recording for long.
func (o *Obs) Handler() http.Handler {
	if o == nil {
		o = &Obs{} // nil handles degrade to empty snapshots, not panics
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := o.Metrics.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			writeBody(w, snap.JSON())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeBody(w, []byte(snap.Text()))
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if idStr := r.URL.Query().Get("id"); idStr != "" {
			id, err := strconv.ParseUint(idStr, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id: want 16 hex digits", http.StatusBadRequest)
				return
			}
			spans := o.Trace.Trace(id)
			if spans == nil {
				http.Error(w, "trace not found (aged out or never seen)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			data, err := json.MarshalIndent(spans, "", "  ")
			if err != nil {
				data = []byte("[]")
			}
			writeBody(w, data)
			return
		}
		traces := o.Trace.Traces()
		if s := r.URL.Query().Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
				return
			}
			if n < len(traces) {
				traces = traces[len(traces)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		data, err := json.MarshalIndent(traces, "", "  ")
		if err != nil {
			data = []byte("[]")
		}
		writeBody(w, data)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeBody sends an already-assembled response body on a debug
// endpoint.
func writeBody(w http.ResponseWriter, body []byte) {
	//lint:allow errcheck the debug sidecar is best-effort: a failed write means the scraper disconnected and there is no caller to surface the error to
	_, _ = w.Write(body)
}
