package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Handler serves the registry over HTTP, one endpoint per row of its
// table, each writing the same JSON document the CLI writes to a file.
// The index page at / is written from the same rows, so it links
// exactly the endpoints served. cmd/commlat mounts this behind the
// global -listen flag.
func Handler(r *Registry) http.Handler {
	endpoints := []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{"/debug/telemetry", "counter snapshot", func(w io.Writer) error { return writeJSON(w, r.Snapshot()) }},
		{"/debug/commlat/flightrec", "flight-recorder snapshot", r.WriteFlightJSON},
		{"/debug/commlat/percentiles", "stage-latency percentiles", WritePercentilesJSON},
	}
	mux := http.NewServeMux()
	var index strings.Builder
	index.WriteString("<html><body><h1>commlat telemetry</h1><ul>\n")
	for _, e := range endpoints {
		mux.HandleFunc(e.path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = e.write(w)
		})
		fmt.Fprintf(&index, "<li><a href=\"%s\">%s</a> (%s)</li>\n", e.path, e.path, e.what)
	}
	index.WriteString("</ul></body></html>")
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = io.WriteString(w, index.String())
	})
	return mux
}
