package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"entangle/internal/server"
)

// perLayer computes the --trace 1 metrics: cache and generator figures
// from the open-loop window, everything else from the traced run's
// spans, replays and replies. Per-request figures average over traced
// requests; a figure a workload has no samples for reads 0.
func perLayer(w workload, seed int64, outs []outcome, before, after server.StatsResponse, t *traceResult) ([]metric, error) {
	n := float64(len(t.records))
	if n == 0 {
		return nil, fmt.Errorf("the traced run has no correct traced request")
	}
	byReq := map[int]*traceRecord{}
	for i := range t.records {
		byReq[t.records[i].req] = &t.records[i]
	}
	sum := map[string]time.Duration{} // per span name, traced requests only
	durs := map[string][]float64{}
	handler := map[int]time.Duration{}
	coreTime := map[int]time.Duration{}
	var kept []span
	for _, s := range t.spans {
		if byReq[s.req] == nil {
			continue
		}
		kept = append(kept, s)
		d := s.end - s.start
		sum[s.name] += d
		durs[s.name] = append(durs[s.name], ms(d))
		switch s.name {
		case "server.handler":
			handler[s.req] += d
		case "core.check", "core.diff_check":
			coreTime[s.req] += d
		}
	}
	perReq := func(name string) float64 { return ms(sum[name]) / n }

	var wire, coreMs []float64
	var reqKB, respKB float64
	var rp replayed
	nRep := 0.0 // traced requests whose in-process core run returned a report
	var live struct{ iters, matches, nodes, budget, apps int }
	for _, rec := range t.records {
		wire = append(wire, ms(rec.latency-handler[rec.req]))
		coreMs = append(coreMs, ms(coreTime[rec.req]))
		reqKB += float64(len(rec.r.body)) / 1024
		respKB += float64(rec.rep.size) / 1024
		x := rec.replayed
		rp.cones += x.cones
		rp.live += x.live
		rp.replays += x.replays
		rp.escal += x.escal
		if x.reported {
			nRep++
		}
		rp.allocs += x.allocs
		rp.allocBytes += x.allocBytes
		rp.rechecked += x.rechecked
		rp.candidates += x.candidates
		ls := x.liveStats
		if rec.rep.check != nil {
			ls = rec.rep.check.LiveStats
		}
		live.iters += ls.Iterations
		live.matches += ls.Matches
		live.nodes += ls.Nodes
		live.budget += ls.BudgetHit
		for _, c := range ls.Applications {
			live.apps += c
		}
	}

	// Cache figures over the open-loop window.
	b, a := before.Cache, after.Cache
	hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
	nWin := float64(len(outs))
	var lag []float64
	nFailed, _ := failures(outs)
	for _, o := range outs {
		lag = append(lag, ms(o.lag))
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	self := selfTimes(kept)
	overhead := ratio(quantile(msAll(t.traced), 0.5), quantile(msAll(t.untraced), 0.5))
	m := []metric{
		{"server.handler_ms_p50", quantile(durs["server.handler"], 0.5), "ms", ""},
		{"server.wire_ms_p50", quantile(wire, 0.5), "ms", "client latency minus handler"},
		{"server.response_kb", respKB / n, "KiB", ""},
		{"server.self_ms_per_req", ms(self["server"]) / n, "ms", "handler minus operator and cache spans"},
		{"decode.body_ms", perReq("decode.body"), "ms", ""},
		{"decode.graph_ms", perReq("decode.graph"), "ms", ""},
		{"decode.hlo_ms", perReq("decode.hlo"), "ms", ""},
		{"decode.relation_ms", perReq("decode.relation"), "ms", ""},
		{"decode.request_kb", reqKB / n, "KiB", ""},
		{"decode.self_ms_per_req", ms(self["decode"]) / n, "ms", ""},
		{"fingerprint.ms_per_req", perReq("fingerprint.cones"), "ms", ""},
		{"fingerprint.cones_per_req", float64(rp.cones) / n, "count", ""},
		{"core.check_ms_p50", quantile(coreMs, 0.5), "ms", "in-process CheckContext + DiffCheckContext"},
		{"core.op_ms_p50", quantile(durs["core.op"], 0.5), "ms", fmt.Sprintf("n=%d live operator checks", len(durs["core.op"]))},
		{"core.op_ms_p95", quantile(durs["core.op"], 0.95), "ms", ""},
		{"core.ops_live_per_req", ratio(float64(rp.live), nRep), "count", "requests with a report"},
		{"core.ops_replayed_per_req", ratio(float64(rp.replays), nRep), "count", "requests with a report"},
		{"core.escalations_per_req", ratio(float64(rp.escal), nRep), "count", "requests with a report"},
		{"core.diff_plan_ms", mean(durs["core.diff_plan"]), "ms", "per candidate"},
		{"core.recheck_cone_ratio", ratio(float64(rp.rechecked), float64(rp.candidates)), "ratio", "re-checked / candidate operators"},
		{"core.depth_cost_ratio", depthCostRatio(kept, byReq), "ratio", "3-layer requests: last-layer op time / L0 op time"},
		{"core.allocs_per_req", float64(rp.allocs) / n, "count", ""},
		{"core.alloc_mb_per_req", float64(rp.allocBytes) / (1 << 20) / n, "MiB", ""},
		{"core.self_ms_per_req", ms(self["core"]) / n, "ms", "core spans minus cache probes, both sides"},
		{"gc.cpu_fraction", t.gcCPUFrac, "ratio", "over the traced run"},
		{"egraph.iterations_per_req", float64(live.iters) / n, "count", "live saturation only"},
		{"egraph.matches_per_req", float64(live.matches) / n, "count", ""},
		{"egraph.matches_per_iter", ratio(float64(live.matches), float64(live.iters)), "count", ""},
		{"egraph.nodes_per_req", float64(live.nodes) / n, "count", ""},
		{"egraph.budget_hits_per_req", float64(live.budget) / n, "count", ""},
		{"lemmas.applications_per_req", float64(live.apps) / n, "count", ""},
		{"vcache.hit_ratio", ratio(hits, hits+misses), "ratio", "window"},
		{"vcache.disk_hit_ratio", ratio(float64(a.DiskHits-b.DiskHits), hits), "ratio", "disk hits / hits, window"},
		{"vcache.stores_per_req", float64(a.Stores-b.Stores) / nWin, "count", "window"},
		{"vcache.evictions_per_req", float64(a.Evictions-b.Evictions) / nWin, "count", "window"},
		{"vcache.corrupt", float64(a.Corrupt - b.Corrupt), "count", "window"},
		{"vcache.get_us_p50", 1000 * quantile(durs["vcache.get"], 0.5), "us", ""},
		{"vcache.put_us_p50", 1000 * quantile(durs["vcache.put"], 0.5), "us", ""},
		{"vcache.self_ms_per_req", ms(self["vcache"]) / n, "ms", ""},
		{"harness.lag_ms_p95", quantile(lag, 0.95), "ms", "generator lateness, window"},
		{"harness.trace_overhead_ratio", overhead, "ratio", "traced / untraced median latency"},
		{"harness.error_ratio", float64(nFailed) / nWin, "ratio", "window"},
		{"harness.samples", n, "count", fmt.Sprintf("traced requests; window n=%d", len(outs))},
		{"harness.peak_rss_mb", rss, "MiB", "VmHWM at the end of the run"},
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	summary := map[string]any{"workload": w.name, "seed": seed, "host": hostLine(), "traced_requests": len(t.records)}
	layerSelf := map[string]float64{}
	for l, d := range self {
		layerSelf[l] = ms(d) / n
	}
	summary["self_ms_per_req"] = layerSelf
	summary["trace_overhead_ratio"] = overhead
	if err := writeChromeTrace(path+".trace.json", kept, summary); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path+".selftime.json", data, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %s.trace.json (%d spans), self time per layer in %s.selftime.json\n", path, len(kept), path)
	return m, nil
}

var layerLabel = regexp.MustCompile(`^L(\d+)/(.+)$`)

// depthCostRatio compares, on traced 3-layer requests, the live check
// time of each operator in the last layer with the same operator in
// layer 0 (Fig. 4 expects the cost of an operator not to depend on its
// depth, so ≈1).
func depthCostRatio(spans []span, byReq map[int]*traceRecord) float64 {
	type key struct {
		req  int
		name string
	}
	first, last := map[key]time.Duration{}, map[key]time.Duration{}
	for _, s := range spans {
		rec := byReq[s.req]
		if s.name != "core.op" || rec == nil || rec.r.spec.Layers != 3 {
			continue
		}
		m := layerLabel.FindStringSubmatch(s.label)
		if m == nil {
			continue
		}
		switch m[1] {
		case "0":
			first[key{s.req, m[2]}] += s.end - s.start
		case "2":
			last[key{s.req, m[2]}] += s.end - s.start
		}
	}
	var lo, hi time.Duration
	for k, d := range first {
		if e, ok := last[k]; ok {
			lo += d
			hi += e
		}
	}
	return ratio(float64(hi), float64(lo))
}
