package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"entangle/internal/server"
)

// client talks to one daemon over at most conns keep-alive
// connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Timeout: requestTimeout + time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one fully read and decoded daemon answer.
type reply struct {
	status  int
	size    int
	check   *server.CheckResponse
	recheck *server.RecheckResponse
}

// send posts a request and decodes the answer into the type its
// endpoint returns.
func (c *client) send(r *request) (*reply, error) {
	resp, err := c.http.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s reply: %w", r.path, err)
	}
	rep := &reply{status: resp.StatusCode, size: len(data)}
	if r.path == "/v1/recheck" {
		rep.recheck = new(server.RecheckResponse)
		err = json.Unmarshal(data, rep.recheck)
	} else {
		rep.check = new(server.CheckResponse)
		err = json.Unmarshal(data, rep.check)
	}
	if err != nil {
		return nil, fmt.Errorf("decoding %s reply (status %d): %w", r.path, resp.StatusCode, err)
	}
	return rep, nil
}

// stats fetches /v1/stats.
func (c *client) stats() (server.StatsResponse, error) {
	var s server.StatsResponse
	resp, err := c.http.Get(c.base + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	if s.Cache == nil {
		return s, fmt.Errorf("/v1/stats has no cache section")
	}
	return s, nil
}
