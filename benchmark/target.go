package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// A target carries one op to the service and returns its status and
// body. Each client goroutine owns one target, so targets keep reusable
// buffers without locking; the returned body is valid until the next
// call.
type target interface {
	do(o *op) (status int, body []byte, err error)
	close()
}

// inprocTarget dispatches straight into the service's http.Handler: no
// sockets, so the exchange is the serve path itself (mux, middleware,
// handler, response rendering).
type inprocTarget struct {
	h      http.Handler
	body   bytes.Reader
	closer io.ReadCloser // wraps body, built once
	rec    recorder
}

func newInprocTarget(h http.Handler) *inprocTarget {
	t := &inprocTarget{h: h, rec: recorder{header: make(http.Header)}}
	t.closer = io.NopCloser(&t.body)
	return t
}

var jsonHeader = http.Header{"Content-Type": {"application/json"}}

func (t *inprocTarget) do(o *op) (int, []byte, error) {
	t.body.Reset(o.body)
	req := &http.Request{
		Method: http.MethodPost, URL: o.url, Host: o.url.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: jsonHeader, Body: t.closer, ContentLength: int64(len(o.body)),
	}
	t.rec.reset()
	t.h.ServeHTTP(&t.rec, req)
	return t.rec.status(), t.rec.body.Bytes(), nil
}

func (t *inprocTarget) close() {}

// get issues a body-less GET (the /debug/requests and /metrics pulls).
func (t *inprocTarget) get(path string) (int, []byte) {
	req, err := http.NewRequest(http.MethodGet, "http://in-process"+path, nil)
	if err != nil {
		panic(err)
	}
	t.rec.reset()
	t.h.ServeHTTP(&t.rec, req)
	return t.rec.status(), t.rec.body.Bytes()
}

// recorder is the in-memory ResponseWriter the in-process target serves
// into, reused across ops.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// connStats counts, across every TCP target of the process, how many
// requests were sent and how many of them rode a reused keep-alive
// connection.
type connStats struct {
	requests, reused atomic.Int64
}

func (c *connStats) reuseShare() float64 {
	n := c.requests.Load()
	if n == 0 {
		return 0
	}
	return float64(c.reused.Load()) / float64(n)
}

// tcpTarget sends ops over host loopback on one keep-alive connection of
// its own.
type tcpTarget struct {
	base   string
	client *http.Client
	ctx    context.Context
	buf    bytes.Buffer
	body   bytes.Reader
}

func newTCPTarget(addr string, stats *connStats) *tcpTarget {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			stats.requests.Add(1)
			if info.Reused {
				stats.reused.Add(1)
			}
		},
	})
	return &tcpTarget{
		base:   "http://" + addr,
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		ctx:    ctx,
	}
}

func (t *tcpTarget) do(o *op) (int, []byte, error) {
	t.body.Reset(o.body)
	req, err := http.NewRequestWithContext(t.ctx, http.MethodPost, t.base+o.url.Path, &t.body)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	t.buf.Reset()
	_, err = t.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("reading %s response: %w", o.url.Path, err)
	}
	return resp.StatusCode, t.buf.Bytes(), nil
}

func (t *tcpTarget) close() { t.client.CloseIdleConnections() }

// listener serves an http.Handler on an ephemeral loopback port with
// cmd/fgserved's connection timeouts.
type listener struct {
	srv  *http.Server
	addr string
	done chan error
}

func listen(h http.Handler, requestTimeout time.Duration) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      requestTimeout + 15*time.Second,
			IdleTimeout:       120 * time.Second,
		},
		addr: ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// shutdown drains the listener and returns once its serve goroutine has
// exited.
func (l *listener) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}
