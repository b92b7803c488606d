package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"incbubbles/internal/cli"
	"incbubbles/internal/server"
	"incbubbles/internal/trace"
)

// tenant is the one tenant every serving workload creates.
const tenant = "bench"

// drainTimeout matches cmd/bubbled's -drain-timeout default.
const drainTimeout = 30 * time.Second

// bubbledDefaults are cmd/bubbled's flag defaults: pipeline depth 2,
// group commit 4, a checkpoint every 8 batches, 2 checkpoints kept.
func bubbledDefaults() server.TenantConfig {
	return server.TenantConfig{
		QueueDepth:      16,
		PipelineDepth:   2,
		CheckpointEvery: 8,
		KeepCheckpoints: 2,
		GroupCommit:     4,
		RetryAttempts:   3,
	}
}

// bubbledProc is one running bubbled on a loopback listener.
type bubbledProc struct {
	base   string // http://host:port
	cancel context.CancelFunc
	done   chan error
}

// startBubbled runs bubbled over root as cmd/bubbled does by default —
// cli.RunBubbled with the default settings and the JSON request log on,
// written to a discarding writer. With a tracer it runs the same server
// with the tracer injected through server.Options.Tracer, so every
// program span lands in one ring the benchmark reads at the end.
func startBubbled(root string, tr *trace.Tracer) (*bubbledProc, error) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &bubbledProc{cancel: cancel, done: make(chan error, 1)}
	ready := make(chan net.Addr, 1)
	onReady := func(a net.Addr) { ready <- a }
	go func() {
		if tr == nil {
			p.done <- cli.RunBubbled(ctx, cli.BubbledOptions{
				Addr: "127.0.0.1:0", Root: root, Seed: 1,
				Defaults: bubbledDefaults(), DrainTimeout: drainTimeout,
				LogJSON: true, OnReady: onReady,
			}, io.Discard)
			return
		}
		p.done <- runTracedBubbled(ctx, root, tr, onReady)
	}()
	select {
	case a := <-ready:
		p.base = "http://" + a.String()
		return p, nil
	case err := <-p.done:
		cancel()
		if err == nil {
			err = errors.New("bubbled exited before serving")
		}
		return nil, err
	}
}

// stop drains bubbled gracefully, as SIGTERM does, and waits for it.
func (p *bubbledProc) stop() error {
	p.cancel()
	return <-p.done
}

// runTracedBubbled is cli.RunBubbled with server.Options.Tracer set.
func runTracedBubbled(ctx context.Context, root string, tr *trace.Tracer, onReady func(net.Addr)) error {
	srv, err := server.New(server.Options{
		Root: root, Seed: 1, Defaults: bubbledDefaults(), DrainTimeout: drainTimeout,
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
		Tracer: tr,
	})
	if err != nil {
		return err
	}
	dctx := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), drainTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c, cancel := dctx()
		defer cancel()
		return errors.Join(err, srv.Drain(c))
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	onReady(ln.Addr())
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	c, cancel := dctx()
	defer cancel()
	derr := srv.Drain(c)
	if err := hs.Shutdown(c); err != nil {
		return errors.Join(derr, err)
	}
	<-errCh // http.ErrServerClosed once Shutdown returns
	return derr
}

// conn is one HTTP/1.1 connection to bubbled: a client whose transport
// keeps at most one connection, so a workload's connection count is its
// number of conns.
type conn struct {
	base string
	c    *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, c: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// reply is one response: its status, body and bubbled's request ID.
type reply struct {
	status int
	body   []byte
	reqID  int64
}

func (r reply) ok() bool { return r.status >= 200 && r.status < 300 }

func (c *conn) do(method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	id, _ := strconv.ParseInt(strings.TrimPrefix(resp.Header.Get("X-Request-Id"), "req-"), 10, 64)
	return reply{status: resp.StatusCode, body: b, reqID: id}, nil
}

// tenantStatus is the part of GET /tenants/{t}/status that must survive
// a drain and restart unchanged.
type tenantStatus struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Applied  int    `json:"applied"`
	Points   int    `json:"points"`
	Bubbles  int    `json:"bubbles"`
	Dim      int    `json:"dim"`
	ReadOnly bool   `json:"read_only"`
	Reason   string `json:"reason"`
	Pipeline int    `json:"pipeline_depth"`
	QueueCap int    `json:"queue_cap"`
}

func (c *conn) status() (tenantStatus, error) {
	var st tenantStatus
	r, err := c.do(http.MethodGet, "/tenants/"+tenant+"/status", nil)
	if err != nil {
		return st, err
	}
	if !r.ok() {
		return st, fmt.Errorf("status: HTTP %d: %s", r.status, r.body)
	}
	return st, json.Unmarshal(r.body, &st)
}

// ingestReply is the part of an ingest reply the checks read.
type ingestReply struct {
	Ordinal  int     `json:"ordinal"`
	Applied  int     `json:"applied"`
	Inserted int     `json:"inserted"`
	Deleted  int     `json:"deleted"`
	FirstID  *uint64 `json:"first_id"`
}

// plotReply is the part of a /plot reply the checks read.
type plotReply struct {
	Applied     int `json:"applied"`
	TotalWeight int `json:"total_weight"`
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
