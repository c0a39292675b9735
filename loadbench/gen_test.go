package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"reflect"
	"testing"
	"time"

	"entangle/internal/core"
	"entangle/internal/exprparse"
	"entangle/internal/models"
)

func allBodies(in *inputs) [][]byte {
	var out [][]byte
	for _, rs := range [][]*request{in.setup, in.warmup, in.window} {
		for _, r := range rs {
			out = append(out, r.body)
		}
	}
	for _, p := range in.traced {
		out = append(out, p[0].body, p[1].body)
	}
	return out
}

// The same seed must give a byte-identical request stream with the
// same due times; another seed must not.
func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w, 7, time.Second, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makeInputs(w, 7, time.Second, true)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makeInputs(w, 8, time.Second, true)
		if err != nil {
			t.Fatal(err)
		}
		ab, bb, cb := allBodies(a), allBodies(b), allBodies(c)
		if len(ab) != len(bb) || len(a.dues) != len(b.dues) {
			t.Fatalf("%s: same seed gave %d/%d bodies and %d/%d dues", w.name, len(ab), len(bb), len(a.dues), len(b.dues))
		}
		for i := range ab {
			if !bytes.Equal(ab[i], bb[i]) {
				t.Fatalf("%s: body %d differs under the same seed", w.name, i)
			}
		}
		for i := range a.dues {
			if a.dues[i] != b.dues[i] {
				t.Fatalf("%s: due time %d differs under the same seed", w.name, i)
			}
		}
		if len(a.dues) < minRequests {
			t.Errorf("%s: %d arrivals, want at least %d", w.name, len(a.dues), minRequests)
		}
		if bytes.Equal(ab[len(ab)-1], cb[len(cb)-1]) && a.dues[0] == c.dues[0] {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

// Cold requests (warm-up included), recheck bases and recheck edits
// must all be unseen: no two pairs of a run may coincide.
func TestInputsAreFresh(t *testing.T) {
	for _, name := range []string{"cold-check", "recheck-edit"} {
		w, _ := workloadByName(name)
		in, err := makeInputs(w, 3, time.Second, true)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[32]byte]bool{}
		for _, body := range allBodies(in) {
			h := sha256.Sum256(body)
			if seen[h] {
				t.Fatalf("%s: a request body repeats", name)
			}
			seen[h] = true
		}
		edits := map[string]bool{}
		for _, r := range in.window {
			for _, c := range r.cands {
				k := r.spec.String() + "/" + c.edit
				if edits[k] {
					t.Fatalf("%s: edit %s repeats", name, k)
				}
				edits[k] = true
			}
		}
	}
	w, _ := workloadByName("warm-check")
	in, err := makeInputs(w, 3, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, r := range in.setup {
		stored += r.ops
	}
	if stored < warmWorkingSet || len(in.window) < minRequests {
		t.Errorf("warm set stores %d verdicts (want >= %d), window %d requests", stored, warmWorkingSet, len(in.window))
	}
}

// The benchmark's relation renderer must round-trip through the
// daemon's parser for every family and every bug shape.
func TestRelationRoundTrip(t *testing.T) {
	var specs []spec
	for _, f := range families {
		specs = append(specs, spec{Family: f.name, TP: 2, Layers: 2, Seq: 16}, spec{Family: f.name, TP: 4, Layers: 1, Seq: 32})
	}
	for _, b := range bugTable {
		specs = append(specs, spec{Family: b.family, TP: b.tp, Layers: b.layers, Seq: 24, Bug: b.bug})
	}
	for _, s := range specs {
		b, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		raw := renderRelation(b.Gs, b.Ri)
		ri, err := exprparse.ParseRelation(raw, b.Gs, b.Gd)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for _, id := range b.Ri.Tensors() {
			want, got := b.Ri.Get(id), ri.Get(id)
			if len(want) != len(got) {
				t.Fatalf("%s: %s has %d mappings after the round trip, want %d", s, b.Gs.Tensor(id).Name, len(got), len(want))
			}
			for i := range want {
				if want[i].String() != got[i].String() {
					t.Errorf("%s: %s round-trips %s as %s", s, b.Gs.Tensor(id).Name, want[i], got[i])
				}
			}
		}
		if ri.Len() != b.Ri.Len() {
			t.Errorf("%s: relation has %d tensors after the round trip, want %d", s, ri.Len(), b.Ri.Len())
		}
	}
}

// The structural cone the oracle expects must be exactly the set the
// diff planner marks for re-checking.
func TestDownstreamConeMatchesPlanner(t *testing.T) {
	for _, s := range recheckDeck() {
		s.Seq = 16
		b, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range swappable(b.Gs) {
			edited, cone, err := swapOperands(b.Gs, label)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := exprparse.ParseRelation(renderRelation(b.Gs, b.Ri), edited, b.Gd)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := core.DiffPlan(b.Gs, b.Ri, edited, ri, b.Gd)
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.Checks + plan.Tainted; got != cone || cone < 1 {
				t.Errorf("%s: edit %s: planner re-checks %d operators, structural cone is %d", s, label, got, cone)
			}
		}
	}
}

// Every bug shape builds and names an operator its G_s has.
func TestBugTableNamesRealOperators(t *testing.T) {
	for _, b := range bugTable {
		built, err := spec{Family: b.family, TP: b.tp, Layers: b.layers, Seq: 16, Bug: b.bug}.build()
		if err != nil {
			t.Fatal(err)
		}
		if nodeByLabel(built.Gs, b.failsAt) == nil {
			t.Errorf("%s: G_s has no operator %q", b.bug, b.failsAt)
		}
		if b.bug == models.BugNone {
			t.Errorf("bug table holds a clean entry")
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "server.handler", start: 0, end: 10 * ms},
		// Two overlapping children cover [2, 7); a third lies outside.
		{id: 2, parent: 1, name: "core.op", start: 2 * ms, end: 5 * ms},
		{id: 3, parent: 1, name: "core.op", start: 4 * ms, end: 7 * ms},
		{id: 4, parent: 1, name: "vcache.put", start: 9 * ms, end: 12 * ms},
	}
	got := selfTimes(spans)
	if got["server"] != 4*ms || got["core"] != 6*ms || got["vcache"] != 3*ms {
		t.Errorf("self times %v, want server 4ms, core 6ms, vcache 3ms", got)
	}
}

// A small end-to-end pass through a real daemon with every hook on:
// concurrent sends, the oracle, the stats self-check and the traced
// run (run it under -race).
func TestDaemonEndToEnd(t *testing.T) {
	g := newGen(5)
	w, _ := workloadByName("recheck-edit")
	in := &inputs{}
	if err := w.build(in, g, 2, true); err != nil {
		t.Fatal(err)
	}
	in.traced = in.traced[:2]
	cold, _ := workloadByName("cold-check")
	tr := newTracer()
	d, err := startDaemon(t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(d.url, 2)
	defer func() {
		c.close()
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	if n, msgs := failures(judge(drive(c, in.setup, nil, 2), func(r *request, rep *reply) error { return verify(cold, r, rep) })); n > 0 {
		t.Fatalf("set-up: %v", msgs)
	}
	before, err := c.stats()
	if err != nil {
		t.Fatal(err)
	}
	outs := judge(drive(c, in.window, []time.Duration{0, time.Millisecond}, 2), func(r *request, rep *reply) error { return verify(w, r, rep) })
	if n, msgs := failures(outs); n > 0 {
		t.Fatalf("window: %v", msgs)
	}
	after, err := c.stats()
	if err != nil {
		t.Fatal(err)
	}
	if errs := selfCheck(w, outs, before, after); len(errs) > 0 {
		t.Fatalf("self-check: %v", errs)
	}
	res, err := tracedRun(tr, c, w, in.traced)
	if err != nil {
		t.Fatal(err)
	}
	if n, msgs := failures(res.outs); n > 0 || len(res.records) != 2 {
		t.Fatalf("traced run: %d records, failures %v", len(res.records), msgs)
	}
	names := map[string]bool{}
	for _, s := range res.spans {
		names[s.name] = true
	}
	for _, want := range []string{"server.handler", "core.op", "vcache.get", "vcache.put", "core.diff_plan", "core.diff_check", "decode.body", "fingerprint.cones"} {
		if !names[want] {
			t.Errorf("traced run recorded no %s span", want)
		}
	}
	if !names["decode.graph"] && !names["decode.hlo"] {
		t.Errorf("traced run recorded no graph decode span")
	}
}

func TestQuantileHarrellDavis(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	// Symmetric weights: the median estimate of 1..5 is 3, and
	// quantiles move monotonically between the extremes.
	if got := quantile(xs, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	lo, hi := quantile(xs, 0.1), quantile(xs, 0.95)
	if !(1 < lo && lo < 3 && 3 < hi && hi < 5) {
		t.Errorf("p10 %v, p95 %v out of order", lo, hi)
	}
	// Reference value from an independent implementation of the same
	// estimator (Harrell & Davis, 1982).
	if got := quantile([]float64{1, 2, 3, 4, 10}, 0.95); math.Abs(got-9.6084) > 1e-3 {
		t.Errorf("p95 = %v, want 9.6084", got)
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{7}, 0.95) != 7 {
		t.Errorf("degenerate samples")
	}
}

func TestSliceBoundsAndMedian(t *testing.T) {
	for _, c := range []struct {
		n, size int
		want    []int
	}{
		{1800, 300, []int{0, 300, 600, 900, 1200, 1500, 1800}},
		{336, 48, []int{0, 48, 96, 144, 192, 240, 288, 336}},
		{700, 300, []int{0, 300, 700}}, // the last slice takes the remainder
		{500, 300, []int{0, 500}},      // shorter than two slices: one
	} {
		if got := sliceBounds(c.n, c.size); !reflect.DeepEqual(got, c.want) {
			t.Errorf("sliceBounds(%d, %d) = %v, want %v", c.n, c.size, got, c.want)
		}
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 3, 2}) != 2.5 || median(nil) != 0 {
		t.Errorf("median")
	}
}

// TestEndToEndSlices checks that each slice's CPU runs from its first
// release to the next slice's (the last to the end of the window), that
// the median latency and the CPU are medians over slices, and that the
// p95 is the whole window's.
func TestEndToEndSlices(t *testing.T) {
	cpu := []time.Duration{0, 10, 20, 40, 50, 60}
	lat := []time.Duration{1, 1, 2, 2, 9, 9}
	outs := make([]outcome, len(cpu))
	for i := range outs {
		outs[i] = outcome{cpu: cpu[i] * time.Millisecond, latency: lat[i] * time.Millisecond}
	}
	ms, err := endToEnd(outs, 100*time.Millisecond, 2, []float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range ms {
		got[m.name] = m.value
	}
	// Slice CPU per request: (20-0)/2, (50-20)/2, (100-50)/2.
	p95 := quantile([]float64{1, 1, 2, 2, 9, 9}, 0.95)
	for name, want := range map[string]float64{"cpu_ms_per_req": 15, "latency_p50_ms": 2, "latency_p95_ms": p95, "setup_s": 2, "success_ratio": 1} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}
