package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves the registry's two read-only views:
//
//	/metrics       JSON Snapshot
//	/metrics/prom  Prometheus text exposition
//
// Each request takes its own Snapshot, so concurrent scrapes never block
// each other or the training hot path.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reg.Snapshot())
	})
	mux.HandleFunc("/metrics/prom", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.Snapshot().WriteProm(w)
	})
	return mux
}

// Serve binds addr (host:port; port 0 picks a free one) and serves
// Handler(reg) in a background goroutine. The returned server supports
// graceful teardown via Shutdown; the returned address is the bound
// listener address, which callers print so scrapers and `calibre sweep
// watch` know where to point.
func Serve(addr string, reg *Registry) (*http.Server, net.Addr, error) {
	return ServeHandler(addr, Handler(reg))
}

// ServeHandler binds addr (host:port; port 0 picks a free one) and serves
// an arbitrary handler in a background goroutine — the same lifecycle as
// Serve, for callers that wrap Handler(reg) with extra endpoints (the
// health plane's /healthz mounts this way without obs importing the
// detector layer).
func ServeHandler(addr string, h http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}

// ServePprof binds addr and serves the net/http/pprof profiling suite
// (/debug/pprof/ index, profile, heap, goroutine, trace, …) in a
// background goroutine. It registers the handlers on a private mux — the
// pprof import's http.DefaultServeMux side effect is not relied on — so
// the profiling surface only exists on this listener, never on the
// metrics one. `calibre serve` and `calibre sweep run` expose it
// behind -pprof-addr.
func ServePprof(addr string) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
