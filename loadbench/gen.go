package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/models"
	"entangle/internal/relation"
	"entangle/internal/server"
)

// request is one generated HTTP request and its known answer. The
// daemon sees only path and body; everything else is the benchmark's
// own bookkeeping, decided before the request is built.
type request struct {
	path string // "/v1/check" or "/v1/recheck"
	body []byte
	spec spec
	ops  int // |G_s| of the checked (or base) graph
	// outputs lists G_s's output names: a refined answer maps each.
	outputs []string
	// failsAt is the operator a bug request must fail at ("" = the pair
	// is correct and must be refined).
	failsAt string
	// cands holds each /v1/recheck candidate's edit and the
	// downstream cone size the benchmark computed from G_s.
	cands []candidate
	// cold is the response this pair got when the daemon first checked
	// it (warm-check only): a replayed answer must equal it.
	cold *server.CheckResponse
}

type candidate struct {
	edit string // label of the add/sum whose operands were swapped
	cone int    // operators downstream of the edit, itself included
}

// gen draws every input of a run from one seed. Sequence extents are
// drawn per model configuration from a seeded permutation, so no two
// requests of a run share a pair and the same seed replays the same
// extents in the same order.
type gen struct {
	rng  *rand.Rand
	seqs map[string][]int
	next map[string]int
}

// seqChoices bounds the distinct extents per configuration: a run uses
// at most this many pairs of one configuration.
const seqChoices = 128

func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), seqs: map[string][]int{}, next: map[string]int{}}
}

// spec returns d on a fresh pair: a sequence extent not yet used for
// d's family, degree and bug in the run. Layer counts share one draw,
// because some families (seedmoe-bwd, regression) do not vary with
// depth.
func (g *gen) spec(d spec) (spec, error) {
	key := fmt.Sprintf("%s/%d/%d", d.Family, d.TP, d.Bug)
	if _, ok := g.seqs[key]; !ok {
		g.seqs[key] = g.rng.Perm(seqChoices)
	}
	i := g.next[key]
	if i >= seqChoices {
		return d, fmt.Errorf("more than %d pairs of %s", seqChoices, key)
	}
	g.next[key] = i + 1
	d.Seq = familyByName(d.Family).seqStep * (2 + g.seqs[key][i])
	return d, nil
}

// cleanFamilies are the correct parallelizations of the zoo.
var cleanFamilies = []string{"gpt-tp-sp-vp", "gpt-tp-sp", "llama3-hlo", "qwen2", "seedmoe", "seedmoe-bwd", "regression-grad-accum"}

// checkDeck is one round of cold-check: every clean family at TP 2 and
// 4 with 1–3 layers (42 pairs) plus the six injected bugs, one request
// in eight.
func checkDeck() []spec {
	var d []spec
	for _, f := range cleanFamilies {
		for _, tp := range []int{2, 4} {
			for layers := 1; layers <= 3; layers++ {
				d = append(d, spec{Family: f, TP: tp, Layers: layers})
			}
		}
	}
	for _, b := range bugTable {
		d = append(d, spec{Family: b.family, TP: b.tp, Layers: b.layers, Bug: b.bug})
	}
	return d
}

// warmDeck is one round of the warm set: checkDeck's clean pairs
// except the 3-layer GPT ones. Those four cost as much to verify in
// set-up as the other 38 together, and replaying them exercises nothing
// the 3-layer Llama, Qwen2 and SeedMoE pairs do not.
func warmDeck() []spec {
	var d []spec
	for _, s := range checkDeck() {
		if s.Bug == models.BugNone && !(strings.HasPrefix(s.Family, "gpt") && s.Layers == 3) {
			d = append(d, s)
		}
	}
	return d
}

// recheckDeck is one round of recheck bases. Each G_s holds at least
// four commutative add/sum operators, so every request edits four
// distinct positions.
func recheckDeck() []spec {
	var d []spec
	for _, f := range []string{"gpt-tp-sp", "llama3-hlo", "qwen2", "seedmoe"} {
		d = append(d, spec{Family: f, TP: 2, Layers: 2})
	}
	for _, f := range []string{"llama3-hlo", "qwen2"} {
		d = append(d, spec{Family: f, TP: 4, Layers: 3})
	}
	return d
}

// windowSize is the number of requests a window sends: rate × window,
// at least the given least, rounded up to whole decks so every run sends the
// same mix.
func windowSize(rate float64, window time.Duration, least, deck int) int {
	n := max(int(math.Round(rate*window.Seconds())), least)
	return (n + deck - 1) / deck * deck
}

// poissonArrivals draws n due times of a Poisson process at rate per
// second.
func poissonArrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	dues := make([]time.Duration, n)
	t := 0.0
	for i := range dues {
		t += rng.ExpFloat64() / rate
		dues[i] = time.Duration(t * float64(time.Second))
	}
	return dues
}

// checkRequest builds a /v1/check request for one pair.
func checkRequest(s spec) (*request, error) {
	b, err := s.build()
	if err != nil {
		return nil, err
	}
	return checkRequestFor(s, b)
}

func checkRequestFor(s spec, b *models.Built) (*request, error) {
	fam := familyByName(s.Family)
	gs, err := encodeGraph(b.Gs, fam.hlo)
	if err != nil {
		return nil, err
	}
	gd, err := encodeGraph(b.Gd, fam.hlo)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(server.CheckRequest{Format: format(fam.hlo), Gs: gs, Gd: gd, Rel: renderRelation(b.Gs, b.Ri)})
	if err != nil {
		return nil, err
	}
	r := &request{path: "/v1/check", body: body, spec: s, ops: len(b.Gs.Nodes), failsAt: expectedFailure(s.Bug)}
	for _, o := range b.Gs.Outputs {
		r.outputs = append(r.outputs, b.Gs.Tensor(o).Name)
	}
	return r, nil
}

// recheckRequest builds a /v1/recheck request: the (already verified)
// base pair b plus one candidate per edit, each swapping the operands
// of one commutative add/sum.
func recheckRequest(s spec, b *models.Built, edits []string) (*request, error) {
	fam := familyByName(s.Family)
	base, err := encodeGraph(b.Gs, fam.hlo)
	if err != nil {
		return nil, err
	}
	gd, err := encodeGraph(b.Gd, fam.hlo)
	if err != nil {
		return nil, err
	}
	req := server.RecheckRequest{Format: format(fam.hlo), Base: base, Gd: gd, Rel: renderRelation(b.Gs, b.Ri)}
	r := &request{path: "/v1/recheck", spec: s, ops: len(b.Gs.Nodes)}
	for _, label := range edits {
		edited, cone, err := swapOperands(b.Gs, label)
		if err != nil {
			return nil, err
		}
		raw, err := encodeGraph(edited, fam.hlo)
		if err != nil {
			return nil, err
		}
		req.Candidates = append(req.Candidates, raw)
		r.cands = append(r.cands, candidate{edit: label, cone: cone})
	}
	if r.body, err = json.Marshal(req); err != nil {
		return nil, err
	}
	return r, nil
}

func format(isHLO bool) string {
	if isHLO {
		return "hlo"
	}
	return ""
}

// encodeGraph renders a graph as the daemon accepts it: the JSON
// interchange format, or HLO text inside a JSON string.
func encodeGraph(g *graph.Graph, isHLO bool) (json.RawMessage, error) {
	if !isHLO {
		return json.Marshal(g)
	}
	var b bytes.Buffer
	if err := hlo.Print(&b, g); err != nil {
		return nil, fmt.Errorf("printing HLO for %s: %w", g.Name, err)
	}
	return json.Marshal(b.String())
}

// swappable lists G_s's commutative add/sum operators whose first two
// operands differ, in graph order: swapping them preserves refinement
// but moves the operator's cone fingerprint.
func swappable(g *graph.Graph) []string {
	var out []string
	for _, n := range g.Nodes {
		if (n.Op == expr.OpAdd || n.Op == expr.OpSum) && len(n.Inputs) >= 2 && n.Inputs[0] != n.Inputs[1] {
			out = append(out, n.Label)
		}
	}
	return out
}

// swapOperands returns a copy of g with the first two operands of the
// operator labelled label swapped, and the size of that operator's
// downstream cone (itself included) — the operators a correct
// incremental re-check must re-saturate.
func swapOperands(g *graph.Graph, label string) (*graph.Graph, int, error) {
	c := g.Clone()
	n := nodeByLabel(c, label)
	if n == nil {
		return nil, 0, fmt.Errorf("%s has no operator %q", g.Name, label)
	}
	n.Inputs[0], n.Inputs[1] = n.Inputs[1], n.Inputs[0]
	return c, downstreamCone(c, n), nil
}

// downstreamCone counts the operators reachable from n through tensor
// edges, n included.
func downstreamCone(g *graph.Graph, n *graph.Node) int {
	seen := map[graph.NodeID]bool{n.ID: true}
	work := []*graph.Node{n}
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		for _, out := range v.Outputs {
			for _, c := range g.Consumers(out) {
				if !seen[c.ID] {
					seen[c.ID] = true
					work = append(work, c)
				}
			}
		}
	}
	return len(seen)
}

// renderRelation writes an input relation in the daemon's interchange
// form: G_s tensor name → clean expressions over G_d tensor names, in
// the relation's own order.
func renderRelation(gs *graph.Graph, ri *relation.Relation) map[string][]string {
	out := map[string][]string{}
	ids := ri.Tensors()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		name := gs.Tensor(id).Name
		for _, t := range ri.Get(id) {
			out[name] = append(out[name], renderTerm(t))
		}
	}
	return out
}

// renderTerm prints a clean term in the grammar exprparse reads.
func renderTerm(t *expr.Term) string {
	if t.IsLeaf() {
		return t.Name
	}
	args := make([]string, 0, len(t.Args)+3)
	for _, a := range t.Args {
		args = append(args, renderTerm(a))
	}
	ints := func(n int) {
		for _, e := range t.Ints[:n] {
			args = append(args, e.String())
		}
	}
	switch t.Op {
	case expr.OpConcat:
		args = append(args, "dim="+t.Ints[0].String())
	case expr.OpSlice, expr.OpPad:
		ints(3)
	case expr.OpTranspose:
		ints(2)
	}
	return string(t.Op) + "(" + strings.Join(args, ", ") + ")"
}
