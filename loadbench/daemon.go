package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"entangle"
	"entangle/internal/core"
	"entangle/internal/server"
	"entangle/internal/vcache"
)

// Daemon defaults, as `entangled -cache DIR` sets them.
const (
	requestTimeout    = 5 * time.Minute
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// daemon is one in-process entangled: the real server.Server behind a
// net/http server on a loopback port, with an on-disk verdict cache.
type daemon struct {
	url   string
	cache *vcache.Cache
	srv   *server.Server
	http  *http.Server
	done  chan error
}

// startDaemon boots a daemon whose verdict cache lives in dir. A
// non-nil tracer wraps the handler and the cache and observes every
// operator check; it only passes calls through.
func startDaemon(dir string, tr *tracer) (*daemon, error) {
	vc, err := entangle.OpenVerdictCache(entangle.VerdictCacheConfig{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("opening cache: %w", err)
	}
	opts := core.Options{Workers: runtime.GOMAXPROCS(0), Cache: vc}
	if tr != nil {
		opts.Cache = &tracedStore{inner: vc, tr: tr}
		opts.OpObserver = tr.observeOp
	}
	srv := server.New(server.Config{
		Options:        opts,
		MaxConcurrent:  runtime.GOMAXPROCS(0),
		DefaultTimeout: requestTimeout,
	})
	var h http.Handler = srv
	if tr != nil {
		h = tr.wrapHandler(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{
		url:   "http://" + ln.Addr().String(),
		cache: vc,
		srv:   srv,
		http: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
			WriteTimeout:      requestTimeout + time.Minute,
			IdleTimeout:       idleTimeout,
		},
		done: make(chan error, 1),
	}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the daemon the way entangled does on SIGTERM and waits
// until its serve loop has returned.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.srv.Drain(ctx)
	shutErr := d.http.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("daemon serve loop: %w", err)
	}
	return errors.Join(drainErr, shutErr)
}
