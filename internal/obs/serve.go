package obs

import (
	"encoding/json"
	"net"
	"net/http"
)

// Handler serves the metrics snapshot as JSON — the endpoint cmd/djstat
// attaches to.
func Handler(m *Metrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Snapshot())
	})
}

// Serve starts an HTTP server exposing the snapshot JSON at every path on
// addr (pass "127.0.0.1:0" for an ephemeral port). It returns the bound
// address — hand it to `djstat -watch http://<addr>` — and a stop function
// that closes the listener.
func Serve(addr string, m *Metrics) (boundAddr string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(m)}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}
