package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ctxmatch"
	"ctxmatch/internal/service"
)

// maxCatalogs is the registry capacity the daemon runs with: the whole
// 32-catalog fleet fits, so nothing is evicted.
const maxCatalogs = 32

// newServer builds the ctxmatchd handler stack: a default Matcher and
// every service setting at its default except the catalog cap and the
// snapshot directory. Logs are formatted as the daemon formats them and
// then discarded.
func newServer(snapDir string) (*service.Server, error) {
	m, err := ctxmatch.New()
	if err != nil {
		return nil, err
	}
	return service.New(service.Config{
		Matcher:     m,
		MaxCatalogs: maxCatalogs,
		SnapshotDir: snapDir,
		Logger:      slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
}

// daemon is a service.Server listening on a loopback port.
type daemon struct {
	srv  *service.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve has returned
}

func startDaemon(srv *service.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		if err := d.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return d, nil
}

// stop shuts the listener down and waits for Serve to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
	}
	<-d.done
}

// client is one load-generator connection: its transport keeps at most
// one connection to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the full response
// body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// setupResult is one set-up: the serving daemon and what its uploads
// reported.
type setupResult struct {
	d          *daemon
	snapDir    string // "" without persistence
	seconds    float64
	preparedNS map[string]int64
}

// setup builds a server and a listener and installs every catalog by a
// PUT, one after another; the time runs from server construction until
// the last PUT returns.
func setup(cats []*catalog, snapDir string) (*setupResult, error) {
	start := time.Now()
	srv, err := newServer(snapDir)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(srv)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.close()
	res := &setupResult{d: d, preparedNS: map[string]int64{}}
	for _, cat := range cats {
		status, body, err := c.do(http.MethodPut, "/v1/catalogs/"+cat.name, cat.put)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		var info service.CatalogInfo
		if err == nil {
			err = json.Unmarshal(body, &info)
		}
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("PUT %s: %w", cat.name, err)
		}
		res.preparedNS[cat.name] = info.PreparedNS
	}
	res.seconds = time.Since(start).Seconds()
	return res, nil
}

// restart measures a warm restart over dir: service.New plus
// RestoreSnapshots until every catalog is installed. The server is then
// discarded.
func restart(dir string, want int) (float64, error) {
	start := time.Now()
	srv, err := newServer(dir)
	if err != nil {
		return 0, err
	}
	n, err := srv.RestoreSnapshots()
	secs := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	if n != want {
		return 0, fmt.Errorf("restart restored %d catalogs, want %d", n, want)
	}
	return secs, nil
}

// snapshotPath is where the service keeps name's snapshot inside dir.
func snapshotPath(dir, name string) string {
	return filepath.Join(dir, url.PathEscape(name)+".snap")
}

// writeSnapshots persists every installed catalog of srv into dir under
// the service's file naming, for a restart measurement on a workload
// that serves without persistence.
func writeSnapshots(srv *service.Server, cats []*catalog, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, c := range cats {
		t, ok := srv.Registry().Get(c.name)
		if !ok {
			return fmt.Errorf("catalog %s not installed", c.name)
		}
		var buf bytes.Buffer
		if _, err := t.WriteSnapshot(&buf); err != nil {
			return err
		}
		if err := persistFile(dir, c.name, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// persistFile replaces name's snapshot in dir durably, the way the
// service's snapshot store does: temp file, fsync, rename, directory
// fsync.
func persistFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), snapshotPath(dir, name))
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = d.Sync()
			if cerr := d.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort; the rename never happened
		return fmt.Errorf("persisting %s: %w", name, err)
	}
	return nil
}

// handlerSeconds reads the daemon's per-route latency histogram from
// GET /metrics (served in-process, so it takes no load-generator
// connection) and returns each route's cumulative _sum and _count.
func handlerSeconds(srv *service.Server) (map[string][2]float64, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	const fam = "ctxmatchd_http_request_duration_seconds"
	out := map[string][2]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		var slot int
		var rest string
		switch {
		case strings.HasPrefix(line, fam+`_sum{route="`):
			rest = strings.TrimPrefix(line, fam+`_sum{route="`)
		case strings.HasPrefix(line, fam+`_count{route="`):
			rest, slot = strings.TrimPrefix(line, fam+`_count{route="`), 1
		default:
			continue
		}
		route, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			return nil, fmt.Errorf("unparsable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		cur := out[route]
		cur[slot] = v
		out[route] = cur
	}
	return out, sc.Err()
}
