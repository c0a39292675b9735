package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"entangle/internal/core"
	"entangle/internal/exprparse"
	"entangle/internal/fuzz"
	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/numeric"
	"entangle/internal/relation"
	"entangle/internal/server"
)

// verify checks a reply against the request's known answer, which the
// generator fixed from the model zoo and the bug table — never from a
// checker run. A nil error means the answer is right.
func verify(w workload, r *request, rep *reply) error {
	if r.path == "/v1/recheck" {
		return verifyRecheck(r, rep)
	}
	c := rep.check
	if r.failsAt != "" {
		if rep.status != http.StatusUnprocessableEntity || c.Verdict != "failed" {
			return fmt.Errorf("%s: want failed at %q, got status %d verdict %q", r.spec, r.failsAt, rep.status, c.Verdict)
		}
		if !strings.Contains(c.Error, fmt.Sprintf("operator %q", r.failsAt)) {
			return fmt.Errorf("%s: failure does not name %q: %.200s", r.spec, r.failsAt, c.Error)
		}
	} else {
		if rep.status != http.StatusOK || c.Verdict != "refined" {
			return fmt.Errorf("%s: want refined, got status %d verdict %q: %.200s", r.spec, rep.status, c.Verdict, c.Error)
		}
		if len(c.OutputRelation) != len(r.outputs) {
			return fmt.Errorf("%s: output relation maps %d tensors, G_s has %d outputs", r.spec, len(c.OutputRelation), len(r.outputs))
		}
		for _, o := range r.outputs {
			if len(c.OutputRelation[o]) == 0 {
				return fmt.Errorf("%s: no mapping for G_s output %q", r.spec, o)
			}
		}
		if c.OpsProcessed != r.ops {
			return fmt.Errorf("%s: %d operators processed, G_s has %d", r.spec, c.OpsProcessed, r.ops)
		}
	}
	switch w.name {
	case "cold-check":
		if c.Cache.Hits != 0 {
			return fmt.Errorf("%s: cold pair replayed %d verdicts", r.spec, c.Cache.Hits)
		}
		if r.failsAt == "" && (c.Cache.Misses != int64(r.ops) || c.Cache.Stores != int64(r.ops)) {
			return fmt.Errorf("%s: cold pair missed %d and stored %d verdicts, want %d", r.spec, c.Cache.Misses, c.Cache.Stores, r.ops)
		}
	case "warm-check":
		if c.LiveStats.Iterations != 0 || c.Cache.Misses != 0 || c.Cache.Hits != int64(r.ops) {
			return fmt.Errorf("%s: warm pair ran %d live iterations, %d hits, %d misses", r.spec, c.LiveStats.Iterations, c.Cache.Hits, c.Cache.Misses)
		}
		if err := sameAnswer(r.cold, c); err != nil {
			return fmt.Errorf("%s: warm answer differs from cold: %w", r.spec, err)
		}
	}
	return nil
}

// sameAnswer compares everything a replayed answer must reproduce:
// verdict, failure text, relation, operator count and the stored
// saturation statistics.
func sameAnswer(cold, warm *server.CheckResponse) error {
	pick := func(c *server.CheckResponse) any {
		return []any{c.Verdict, c.Error, c.Failures, c.OutputRelation, c.OpsProcessed, c.Stats}
	}
	a, err := json.Marshal(pick(cold))
	if err != nil {
		return err
	}
	b, err := json.Marshal(pick(warm))
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("cold %.300s, warm %.300s", a, b)
	}
	return nil
}

func verifyRecheck(r *request, rep *reply) error {
	rc := rep.recheck
	if rep.status != http.StatusOK || rc.BaseVerdict != "refined" || len(rc.Candidates) != len(r.cands) {
		return fmt.Errorf("%s: recheck status %d base %q with %d candidates: %s", r.spec, rep.status, rc.BaseVerdict, len(rc.Candidates), rc.Error)
	}
	for i, c := range rc.Candidates {
		want := r.cands[i]
		if c.Verdict != "refined" {
			return fmt.Errorf("%s: edit %s: verdict %q: %.200s", r.spec, want.edit, c.Verdict, c.Error)
		}
		if c.RecheckedOps != want.cone || c.ReplayedOps != r.ops-want.cone || c.UnchangedOps != r.ops-want.cone {
			return fmt.Errorf("%s: edit %s: rechecked %d, replayed %d, unchanged %d; downstream cone is %d of %d",
				r.spec, want.edit, c.RecheckedOps, c.ReplayedOps, c.UnchangedOps, want.cone, r.ops)
		}
	}
	return nil
}

// decodeGraph decodes one graph field the way the daemon does.
func decodeGraph(raw json.RawMessage, format string) (*graph.Graph, error) {
	if format == "hlo" {
		var text string
		if err := json.Unmarshal(raw, &text); err != nil {
			return nil, err
		}
		return hlo.Parse(strings.NewReader(text))
	}
	return graph.Read(bytes.NewReader(raw))
}

// numTol is the numeric agreement tolerance; the tensors are small, so
// anything past float noise is a real divergence.
const numTol = 1e-6

// validateNumeric re-checks a refined request in process and evaluates
// every mapping of the report's output relation on seeded inputs: each
// must reproduce the sequential output. For /v1/check it also requires
// the daemon's output_relation to equal the report's rendering byte
// for byte. A recheck request validates its first candidate.
func validateNumeric(r *request, rep *reply, seed uint64) error {
	var (
		format string
		gsRaw  json.RawMessage
		gdRaw  json.RawMessage
		rel    map[string][]string
	)
	if r.path == "/v1/recheck" {
		var req server.RecheckRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		format, gsRaw, gdRaw, rel = req.Format, req.Candidates[0], req.Gd, req.Rel
	} else {
		var req server.CheckRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		format, gsRaw, gdRaw, rel = req.Format, req.Gs, req.Gd, req.Rel
	}
	gs, err := decodeGraph(gsRaw, format)
	if err != nil {
		return err
	}
	gd, err := decodeGraph(gdRaw, format)
	if err != nil {
		return err
	}
	ri, err := exprparse.ParseRelation(rel, gs, gd)
	if err != nil {
		return err
	}
	report, err := core.NewChecker(core.Options{}).Check(gs, gd, ri)
	if err != nil {
		return fmt.Errorf("in-process check: %w", err)
	}
	built, err := r.spec.build()
	if err != nil {
		return err
	}
	gsIn, err := fuzz.ConcreteInputs(gs, seed)
	if err != nil {
		return err
	}
	gsVals, err := numeric.EvalGraph(gs, gsIn, nil)
	if err != nil {
		return fmt.Errorf("evaluating G_s: %w", err)
	}
	gdIn, err := built.Env.SplitInputs(gsIn)
	if err != nil {
		return err
	}
	gdVals, err := numeric.EvalGraph(gd, gdIn, nil)
	if err != nil {
		return fmt.Errorf("evaluating G_d: %w", err)
	}
	lookup := func(tid int) (*numeric.Dense, error) {
		v, ok := gdVals[relation.GdTensorID(tid)]
		if !ok {
			return nil, fmt.Errorf("no value for G_d tensor %d", tid)
		}
		return v, nil
	}
	rendered := map[string][]string{}
	for _, o := range gs.Outputs {
		name := gs.Tensor(o).Name
		for _, m := range report.OutputRelation.Get(o) {
			got, err := numeric.EvalTerm(m, nil, lookup)
			if err != nil {
				return fmt.Errorf("evaluating %s = %s: %w", name, m, err)
			}
			if !numeric.AllClose(gsVals[o], got, numTol) {
				return fmt.Errorf("%s = %s is off by %.3g", name, m, numeric.MaxAbsDiff(gsVals[o], got))
			}
			rendered[name] = append(rendered[name], m.String())
		}
	}
	if rep.check == nil {
		return nil
	}
	want, err := json.Marshal(rendered)
	if err != nil {
		return err
	}
	got, err := json.Marshal(rep.check.OutputRelation)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("daemon output_relation %s differs from in-process %s", got, want)
	}
	return nil
}
