package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ctxmatch"
)

// Replicator is a client for the snapshot replication endpoints
// (GET/PUT /v1/catalogs/{name}/snapshot) with bounded
// retry-with-backoff, so a follower pulling catalogs from a peer — or
// a node pushing its catalogs out — rides through transient transport
// errors, 5xx responses, and 429 admission refusals instead of failing
// the replication on the first blip.
type Replicator struct {
	// Base is the peer daemon's base URL, e.g. "http://host:8080".
	Base string
	// Client is the HTTP client; default http.DefaultClient.
	Client *http.Client
	// Attempts bounds the total tries per request (first try
	// included); 0 selects 4, 1 disables retries.
	Attempts int
	// Backoff is the delay before the first retry, doubling each
	// further retry; 0 selects 100ms. A 429's Retry-After header is
	// honored when it asks for longer than the computed backoff.
	Backoff time.Duration
}

func (rp *Replicator) attempts() int {
	if rp.Attempts <= 0 {
		return 4
	}
	return rp.Attempts
}

func (rp *Replicator) backoff() time.Duration {
	if rp.Backoff <= 0 {
		return 100 * time.Millisecond
	}
	return rp.Backoff
}

func (rp *Replicator) client() *http.Client {
	if rp.Client == nil {
		return http.DefaultClient
	}
	return rp.Client
}

func (rp *Replicator) snapshotURL(name string) string {
	return rp.Base + "/v1/catalogs/" + url.PathEscape(name) + "/snapshot"
}

// retryable reports whether a response status is worth another try:
// server-side failures and admission refusals are transient; any other
// 4xx is a real answer.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// retryAfter reads a 429/503 Retry-After header as a delay, 0 when
// absent or unparseable (HTTP-date forms are ignored — the backoff
// still applies).
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do runs one request builder under the retry schedule and returns the
// first conclusive response. The builder is called per attempt so the
// body reader is fresh each time.
func (rp *Replicator) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	var lastErr error
	delay := rp.backoff()
	for attempt := 0; attempt < rp.attempts(); attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
			delay *= 2
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := rp.client().Do(req.WithContext(ctx))
		if err != nil {
			// Transport-level failure: retry unless the context died.
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		if !retryable(resp.StatusCode) {
			return resp, nil
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		lastErr = fmt.Errorf("peer answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		if ra := retryAfter(resp); ra > delay {
			delay = ra
		}
	}
	return nil, fmt.Errorf("replication gave up after %d attempts: %w", rp.attempts(), lastErr)
}

// Pull fetches name's snapshot bytes from the peer. The bytes are the
// versioned snapshot container, CRC-validated by whoever loads them.
func (rp *Replicator) Pull(ctx context.Context, name string) ([]byte, error) {
	resp, err := rp.do(ctx, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, rp.snapshotURL(name), nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("pulling %q: peer answered %d: %s", name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return io.ReadAll(resp.Body)
}

// Push uploads name's snapshot bytes to the peer, installing the
// catalog there.
func (rp *Replicator) Push(ctx context.Context, name string, snapshot []byte) error {
	resp, err := rp.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPut, rp.snapshotURL(name), bytes.NewReader(snapshot))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		return req, nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("pushing %q: peer answered %d: %s", name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// PullInto pulls name's snapshot from the peer and installs it into
// the server — validation included: bytes that fail the container's
// CRC or format checks are rejected before touching the registry, and
// a successful install is persisted through the crash-safe store.
func (rp *Replicator) PullInto(ctx context.Context, s *Server, name string) error {
	raw, err := rp.Pull(ctx, name)
	if err != nil {
		return err
	}
	target, err := ctxmatch.LoadTarget(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("pulled snapshot for %q invalid: %w", name, err)
	}
	_, evicted, _ := s.reg.Install(name, target)
	for _, victim := range evicted {
		s.log.Info("catalog evicted", "name", victim, "for", name)
		s.removeQuarantined(victim)
	}
	if s.cfg.SnapshotDir != "" {
		return s.persistCurrent(name, target, raw)
	}
	return nil
}
