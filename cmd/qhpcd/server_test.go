package main

import (
	"net/http"
	"testing"
	"time"
)

// TestServerTimeouts pins the daemon's four server timeouts: header and idle
// timeouts bound a connection that sends nothing, and no read or write
// timeout cuts a watch stream or a ?wait long-poll short.
func TestServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer(":0", h)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Errorf("server on %q with handler %v, want :0 and the one passed", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 2m: a client that never finishes its headers, or idles, must not hold its connection forever", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v; want 0: they would cut watch streams and ?wait long-polls", srv.ReadTimeout, srv.WriteTimeout)
	}
}
