package main

import (
	"net/http"
	"testing"
	"time"
)

func TestServerTimeouts(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout > time.Minute {
		t.Errorf("ReadHeaderTimeout = %v, want a bound of at most a minute", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 || srv.IdleTimeout > 10*time.Minute {
		t.Errorf("IdleTimeout = %v, want a bound of at most ten minutes", srv.IdleTimeout)
	}
}
