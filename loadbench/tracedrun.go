package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/exprparse"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/relation"
	"entangle/internal/server"
)

// replayed is what the in-process replay of one request measured.
type replayed struct {
	cones                 int
	live, replays, escal  int
	reported              bool // core returned a report (a failing check in first-error mode does not)
	allocs, allocBytes    uint64
	liveStats             egraph.Stats
	rechecked, candidates int // recheck: live re-checks and candidate operators
}

// traceRecord is one traced request.
type traceRecord struct {
	req      int
	r        *request
	rep      *reply
	latency  time.Duration
	replayed replayed
}

// traceResult is the outcome of the traced run.
type traceResult struct {
	records   []traceRecord
	untraced  []time.Duration
	traced    []time.Duration
	spans     []span
	gcCPUFrac float64
	outs      []outcome
}

// tracedRun sends each pair of like requests one at a time, one with
// recording on and one with it off, in alternating order. Before its
// HTTP request, every request is replayed in process through the
// layers' public functions — json.Unmarshal, graph.Read or hlo.Parse,
// exprparse.ParseRelation, the fingerprint cone hasher and core —
// against the twin of the daemon's cache.
func tracedRun(tr *tracer, c *client, w workload, pairs [][2]*request) (*traceResult, error) {
	res := &traceResult{}
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	gc0, all0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	reqID := 0
	for k, pair := range pairs {
		for j := 0; j < 2; j++ {
			traced := (j+k)%2 == 0
			r := pair[j]
			reqID++
			tr.on.Store(traced)
			tr.req.Store(int64(reqID))
			root := tr.begin("harness.request", 0)
			rp, err := replay(tr, r, int64(root.id))
			if err != nil {
				tr.on.Store(false)
				return nil, fmt.Errorf("replaying %s: %w", r.spec, err)
			}
			wire := tr.begin("wire.request", int64(root.id))
			tr.client.Store(int64(wire.id))
			t0 := time.Now()
			rep, err := c.send(r)
			lat := time.Since(t0)
			tr.end(wire)
			tr.end(root)
			if err == nil {
				err = verify(w, r, rep)
			}
			res.outs = append(res.outs, outcome{req: r, rep: rep, latency: lat, err: err})
			if !traced {
				res.untraced = append(res.untraced, lat)
				continue
			}
			res.traced = append(res.traced, lat)
			if err == nil {
				res.records = append(res.records, traceRecord{req: reqID, r: r, rep: rep, latency: lat, replayed: rp})
			}
		}
	}
	tr.on.Store(false)
	metrics.Read(samples)
	if d := samples[1].Value.Float64() - all0; d > 0 {
		res.gcCPUFrac = (samples[0].Value.Float64() - gc0) / d
	}
	tr.mu.Lock()
	res.spans = append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	return res, nil
}

// replay runs one request's layers in process, each call in its own
// span under root.
func replay(tr *tracer, r *request, root int64) (replayed, error) {
	var out replayed
	timed := func(name string, f func() error) error {
		sp := tr.begin(name, root)
		err := f()
		tr.end(sp)
		return err
	}
	graphSpan := func(format string) string {
		if format == "hlo" {
			return "decode.hlo"
		}
		return "decode.graph"
	}

	var (
		format string
		rel    map[string][]string
		raws   []json.RawMessage // G_s graphs: the checked one, or base then candidates
		gdRaw  json.RawMessage
	)
	if err := timed("decode.body", func() error {
		if r.path == "/v1/recheck" {
			var req server.RecheckRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				return err
			}
			format, rel, gdRaw = req.Format, req.Rel, req.Gd
			raws = append([]json.RawMessage{req.Base}, req.Candidates...)
			return nil
		}
		var req server.CheckRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		format, rel, gdRaw, raws = req.Format, req.Rel, req.Gd, []json.RawMessage{req.Gs}
		return nil
	}); err != nil {
		return out, err
	}

	var gd *graph.Graph
	gss := make([]*graph.Graph, len(raws))
	if err := timed(graphSpan(format), func() (err error) {
		gd, err = decodeGraph(gdRaw, format)
		return err
	}); err != nil {
		return out, err
	}
	for i, raw := range raws {
		if err := timed(graphSpan(format), func() (err error) {
			gss[i], err = decodeGraph(raw, format)
			return err
		}); err != nil {
			return out, err
		}
	}
	ris := make([]*relation.Relation, len(gss))
	for i, gs := range gss {
		if err := timed("decode.relation", func() (err error) {
			ris[i], err = exprparse.ParseRelation(rel, gs, gd)
			return err
		}); err != nil {
			return out, err
		}
	}

	if err := timed("fingerprint.cones", func() error {
		gdix, err := fingerprint.NewGdIndex(gd)
		if err != nil {
			return err
		}
		digest := fingerprint.GraphDigest(gd)
		for i, gs := range gss {
			ambient := fingerprint.Ambient(core.CheckerVersion, lemmas.Default().Fingerprint(), nil, digest, gs.Ctx)
			cones := fingerprint.NewConeHasher(gs, ris[i], gdix)
			for _, n := range gs.Nodes {
				_ = fingerprint.Key(ambient, cones.Node(n.ID))
			}
			out.cones += len(gs.Nodes)
		}
		return nil
	}); err != nil {
		return out, err
	}

	opts := core.Options{Workers: runtime.GOMAXPROCS(0), Cache: &twinView{tr: tr}}
	count := func(rep *core.Report) {
		if rep == nil {
			return
		}
		out.reported = true
		for _, v := range rep.Verdicts {
			switch {
			case v.Replayed:
				out.replays++
			case v.Kind != core.VerdictSkipped:
				out.live++
			}
			out.escal += v.Escalations
		}
	}
	var m0, m1 runtime.MemStats
	coreSpan := func(name string, f func()) {
		runtime.ReadMemStats(&m0)
		sp := tr.begin(name, root)
		tr.core.Store(int64(sp.id))
		f()
		tr.end(sp)
		runtime.ReadMemStats(&m1)
		out.allocs += m1.Mallocs - m0.Mallocs
		out.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	ctx := context.Background()
	if r.path != "/v1/recheck" {
		coreSpan("core.check", func() {
			rep, _ := core.NewChecker(opts).CheckContext(ctx, gss[0], gd, ris[0])
			count(rep)
		})
		return out, nil
	}
	// Recheck: warm the base under KeepGoing as the daemon does, then
	// plan and re-check each candidate.
	warm := opts
	warm.KeepGoing = true
	var baseErr error
	coreSpan("core.check", func() {
		var rep *core.Report
		rep, baseErr = core.NewChecker(warm).CheckContext(ctx, gss[0], gd, ris[0])
		count(rep)
	})
	if baseErr != nil {
		return out, fmt.Errorf("base: %w", baseErr)
	}
	for i := 1; i < len(gss); i++ {
		var planErr, diffErr error
		if err := timed("core.diff_plan", func() error {
			_, planErr = core.DiffPlan(gss[0], ris[0], gss[i], ris[i], gd)
			return planErr
		}); err != nil {
			return out, err
		}
		coreSpan("core.diff_check", func() {
			var d *core.DeltaReport
			d, diffErr = core.NewChecker(opts).DiffCheckContext(ctx, gss[0], gss[i], gd, ris[0], ris[i])
			if d != nil {
				count(d.Report)
				out.liveStats.Merge(d.Report.LiveStats)
				out.rechecked += d.RecheckedOps
				out.candidates += len(d.Plan.Ops)
			}
		})
		if diffErr != nil {
			return out, fmt.Errorf("candidate %d: %w", i, diffErr)
		}
	}
	return out, nil
}
