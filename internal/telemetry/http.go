package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Handler serves the registry over HTTP, one endpoint per row of its
// table. The index page at / is written from the same rows, so it links
// exactly the endpoints served. cmd/commlat mounts this behind the
// global -listen flag.
func Handler(r *Registry) http.Handler {
	if r == Default {
		PublishExpvar()
	}
	const jsonType = "application/json"
	endpoints := []struct {
		path, what string
		serve      http.HandlerFunc
	}{
		{"/metrics", "Prometheus text: counters and stage-latency histograms",
			writeAs("text/plain; version=0.0.4; charset=utf-8", r.WritePrometheus)},
		{"/debug/telemetry", "JSON snapshot", writeAs(jsonType, func(w io.Writer) error { return writeJSON(w, r.Snapshot()) })},
		{"/debug/vars", "expvar; the Default registry publishes the commlat var", expvar.Handler().ServeHTTP},
		{"/debug/commlat/flightrec", "flight-recorder snapshot", writeAs(jsonType, r.WriteFlightJSON)},
		{"/debug/commlat/percentiles", "stage-latency percentiles", writeAs(jsonType, WritePercentilesJSON)},
		{"/debug/commlat/heatmap", "shard-load heatmap", writeAs(jsonType, r.WriteHeatmapJSON)},
	}
	mux := http.NewServeMux()
	var index strings.Builder
	index.WriteString("<html><body><h1>commlat telemetry</h1><ul>\n")
	for _, e := range endpoints {
		mux.HandleFunc(e.path, e.serve)
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

// writeAs serves what write writes, under the content type ctype.
func writeAs(ctype string, write func(io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ctype)
		_ = write(w)
	}
}

var expvarOnce sync.Once

// PublishExpvar registers the Default registry's snapshot as the
// expvar "commlat". Safe to call more than once; expvar panics on
// duplicate names, hence the Once.
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("commlat", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
