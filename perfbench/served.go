package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

// target is riskd self-hosted in the benchmark process with the default
// server.Config: no per-request timeout and no operation budget, so no
// answer depends on a timing race. It is reached only over HTTP.
type target struct {
	base   string
	srv    *http.Server
	errc   chan error
	client *http.Client
}

// readyWait bounds how long start waits for /readyz.
const readyWait = 10 * time.Second

// startTarget builds the server, listens on an ephemeral localhost port and
// returns once /readyz answers 200.
func startTarget() (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: server.New(server.Config{}).Handler()},
		errc: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
	go func() { t.errc <- t.srv.Serve(ln) }()
	deadline := time.Now().Add(readyWait)
	for {
		resp, err := t.client.Get(t.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return t, nil
			}
		}
		if time.Now().After(deadline) {
			_ = t.stop()
			return nil, fmt.Errorf("perfbench: riskd not ready after %v", readyWait)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down and waits for its serve loop to return.
func (t *target) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	t.client.CloseIdleConnections()
	return err
}

// post sends one JSON body and reads the whole reply. The latency runs from
// just before the request is written to just after the body is read.
func (t *target) post(path string, body []byte) (status int, data []byte, latency time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(t0), err
}

// vars is the part of /debug/vars the ledger reads.
type vars struct {
	Cache struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
		Coalesced int64 `json:"coalesced"`
	} `json:"cache"`
	Delta struct {
		Requests    int64 `json:"requests"`
		Incremental int64 `json:"incremental"`
	} `json:"delta"`
}

func (t *target) vars() (vars, error) {
	var v vars
	resp, err := t.client.Get(t.base + "/debug/vars")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("perfbench: /debug/vars: HTTP %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// cacheLedger turns two /debug/vars readings into the riskcache and delta
// per-layer metrics.
func cacheLedger(a, b vars, ops int) map[string]float64 {
	m := map[string]float64{}
	hits, misses := b.Cache.Hits-a.Cache.Hits, b.Cache.Misses-a.Cache.Misses
	m["riskcache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["riskcache.evictions"] = ratio(float64(b.Cache.Evictions-a.Cache.Evictions), float64(ops))
	m["riskcache.coalesced"] = ratio(float64(b.Cache.Coalesced-a.Cache.Coalesced), float64(ops))
	m["server.delta_incremental_frac"] = ratio(
		float64(b.Delta.Incremental-a.Delta.Incremental), float64(b.Delta.Requests-a.Delta.Requests))
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replyError describes a failed reply for the mismatch log.
func replyError(status int, data []byte, err error) string {
	if err != nil {
		return err.Error()
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(data))
}
