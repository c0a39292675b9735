package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entangle/internal/core"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/vcache"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the span that caused this one (0 for a request's root).
type span struct {
	id, parent, req int
	name            string
	label           string // operator label, for core.op spans
	start, end      time.Duration
}

// layer is the module a span's name belongs to ("core.op" → "core").
func (s span) layer() string {
	name, _, _ := strings.Cut(s.name, ".")
	return name
}

// tracer records spans in memory from the benchmark's own wrappers:
// the HTTP handler around server.Server, a pass-through VerdictStore,
// core's OpObserver, and the benchmark's in-process replay of each
// request. Only one traced request is in flight at a time, so the
// current request and its open client, handler and core spans are
// plain shared cursors. With recording off every hook only passes the
// call through.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	req     atomic.Int64
	client  atomic.Int64 // open wire.request span: parent of server.handler
	handler atomic.Int64 // open server.handler span: parent of daemon-side spans
	core    atomic.Int64 // open in-process core span: parent of replay cache probes
	nextID  atomic.Int64

	mu    sync.Mutex
	spans []span

	// twin mirrors every verdict the daemon stores, so the in-process
	// replay of a request sees the cache state the daemon saw without
	// touching the daemon's cache or its counters.
	twinMu sync.Mutex
	twin   map[fingerprint.Hash]*vcache.Entry
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), twin: map[fingerprint.Hash]*vcache.Entry{}}
}

// open is a span being timed; id < 0 when recording is off.
type open struct {
	id, parent int
	name       string
	start      time.Time
}

func (t *tracer) begin(name string, parent int64) open {
	if !t.on.Load() {
		return open{id: -1}
	}
	return open{id: int(t.nextID.Add(1)), parent: int(parent), name: name, start: time.Now()}
}

func (t *tracer) end(o open) {
	if o.id < 0 {
		return
	}
	t.add(span{id: o.id, parent: o.parent, name: o.name}, o.start, time.Now())
}

func (t *tracer) add(s span, start, end time.Time) {
	s.req = int(t.req.Load())
	s.start, s.end = start.Sub(t.epoch), end.Sub(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// observeOp is core's OpObserver: it runs after each live operator
// check with the check's duration.
func (t *tracer) observeOp(v *graph.Node, d time.Duration) {
	if !t.on.Load() {
		return
	}
	end := time.Now()
	t.add(span{id: int(t.nextID.Add(1)), parent: int(t.handler.Load()), name: "core.op", label: v.Label}, end.Add(-d), end)
}

// wrapHandler times every /v1/check and /v1/recheck in the daemon.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			h.ServeHTTP(w, r)
			return
		}
		sp := t.begin("server.handler", t.client.Load())
		t.handler.Store(int64(sp.id))
		h.ServeHTTP(w, r)
		t.end(sp)
	})
}

// tracedStore is the daemon's verdict cache with timed Get and Put;
// verdicts the cache accepts are mirrored into the tracer's twin.
type tracedStore struct {
	inner core.VerdictStore
	tr    *tracer
}

func (s *tracedStore) Get(key fingerprint.Hash) *vcache.Entry {
	sp := s.tr.begin("vcache.get", s.tr.handler.Load())
	e := s.inner.Get(key)
	s.tr.end(sp)
	return e
}

func (s *tracedStore) Put(key fingerprint.Hash, e *vcache.Entry) error {
	sp := s.tr.begin("vcache.put", s.tr.handler.Load())
	err := s.inner.Put(key, e)
	s.tr.end(sp)
	if err == nil {
		s.tr.twinMu.Lock()
		s.tr.twin[key] = e
		s.tr.twinMu.Unlock()
	}
	return err
}

func (s *tracedStore) Stats() *vcache.Stats { return s.inner.Stats() }

// twinView is the read-only cache of the in-process replay: Gets read
// the twin, Puts are dropped, so replays never change what later
// requests see.
type twinView struct {
	tr    *tracer
	stats vcache.Stats
}

func (v *twinView) Get(key fingerprint.Hash) *vcache.Entry {
	sp := v.tr.begin("vcache.get-replay", v.tr.core.Load())
	v.tr.twinMu.Lock()
	e := v.tr.twin[key]
	v.tr.twinMu.Unlock()
	v.tr.end(sp)
	return e
}

func (v *twinView) Put(fingerprint.Hash, *vcache.Entry) error { return nil }

func (v *twinView) Stats() *vcache.Stats { return &v.stats }

// selfTimes returns each layer's self time: a span's duration minus
// the part of it its child spans cover (children that overlap each
// other count once).
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			a, b := max(c.start, s.start), min(c.end, s.end)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.layer()] += s.end - s.start - covered
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// Perfetto or chrome://tracing). Client-side spans share one track,
// the handler another; daemon-side operator and cache spans, which
// overlap across worker goroutines, get as many tracks as needed.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	daemonSide := map[int]bool{}
	for _, s := range sorted {
		if s.name == "server.handler" {
			daemonSide[s.id] = true
		}
	}
	var laneEnds []time.Duration
	events := make([]event, 0, len(sorted))
	for _, s := range sorted {
		tid := 1
		switch {
		case s.name == "server.handler":
			tid = 2
		case daemonSide[s.parent]:
			lane := 0
			for lane < len(laneEnds) && laneEnds[lane] > s.start {
				lane++
			}
			if lane == len(laneEnds) {
				laneEnds = append(laneEnds, 0)
			}
			laneEnds[lane] = s.end
			tid = 3 + lane
		}
		name := s.name
		if s.label != "" {
			name += " " + s.label
		}
		events = append(events, event{
			Name: name, Cat: s.layer(), Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"req": s.req, "id": s.id, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
