package main

import (
	"fmt"
	"math/rand"
	"time"

	"entangle/internal/vcache"
)

// workload is one traffic mix. rate is the open-loop Poisson arrival
// rate, at most about a fifth of the daemon's measured capacity for the
// mix on a 2-CPU host (see README.md); a window sends at least
// minRequests, rounded up to whole rounds of deck requests. The
// end-to-end latency and CPU figures are medians over slices of slice
// consecutive requests.
type workload struct {
	name        string
	rate        float64
	minRequests int
	deck        int
	slice       int
	build       func(in *inputs, g *gen, n int, withTraced bool) error
}

// minRequests is the fewest requests a window sends: the p95 then has
// at least ten samples beyond it. cold-check sends seven decks, because
// its latencies span three orders of magnitude and its percentiles need
// the samples to settle.
const minRequests = 200

var workloads = []workload{
	{name: "cold-check", rate: 6, minRequests: 7 * len(checkDeck()), deck: len(checkDeck()), slice: len(checkDeck()), build: (*inputs).cold},
	{name: "warm-check", rate: 40, minRequests: minRequests, deck: 1, slice: 300, build: (*inputs).warm},
	{name: "recheck-edit", rate: 8, minRequests: minRequests, deck: len(recheckDeck()), slice: 10 * len(recheckDeck()), build: (*inputs).recheck},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// warmWorkingSet is warm-check's least working set in stored verdicts:
// 1.5 times the daemon's in-memory LRU, so replays hit both memory and
// disk.
const warmWorkingSet = vcache.DefaultMaxEntries * 3 / 2

// coldWarmupDecks is how many decks of fresh pairs cold-check sends
// before its window. Without them, on the 2-vCPU reference host, the
// window's first two or three decks cost up to twice what its last do,
// the difference nearly all system time: the host's first few thousand
// file creations and fresh pages after a quiet spell are slow. Three
// decks (about 7,000 stored verdicts) confine what is left of that
// transient to the first one or two slices, which the median over
// slices then outvotes.
const coldWarmupDecks = 3

// editsPerRecheck is the number of candidates per /v1/recheck request.
const editsPerRecheck = 4

// tracedRecheckDecks is how many rounds of recheck bases the traced run
// sends, for enough samples of a small deck.
const tracedRecheckDecks = 4

// inputs are every request of one run, generated from the seed before
// the daemon boots.
type inputs struct {
	// setup requests are sent, checked and answered before the timed
	// window: a few fresh pairs (cold-check), the warm set
	// (warm-check) or every recheck base (recheck-edit).
	setup []*request
	// warmup requests are sent, closed-loop and checked, after the
	// set-ups and before the timed window, on the daemon that serves
	// the window; setup_s does not include them. cold-check only: see
	// coldWarmupDecks.
	warmup []*request
	// window requests are released at dues.
	window []*request
	dues   []time.Duration
	// traced holds pairs of like requests for the traced run: one of
	// each pair is sent with tracing on, the other with it off.
	traced [][2]*request
}

// makeInputs draws a run's inputs. The same seed gives byte-identical
// request bodies in the same order with the same due times.
func makeInputs(w workload, seed int64, window time.Duration, withTraced bool) (*inputs, error) {
	n := windowSize(w.rate, window, w.minRequests, w.deck)
	in := &inputs{dues: poissonArrivals(rand.New(rand.NewSource(seed)), w.rate, n)}
	if err := w.build(in, newGen(seed+1), n, withTraced); err != nil {
		return nil, err
	}
	return in, nil
}

type makeFunc func(spec) (*request, error)

// fresh makes a request on a new pair of d's configuration.
func (g *gen) fresh(d spec, mk makeFunc) (*request, error) {
	s, err := g.spec(d)
	if err != nil {
		return nil, err
	}
	return mk(s)
}

// requests draws n requests as consecutive seeded shuffles of deck.
func (g *gen) requests(deck []spec, n int, mk makeFunc) ([]*request, error) {
	var out []*request
	for len(out) < n {
		for _, i := range g.rng.Perm(len(deck)) {
			if len(out) == n {
				break
			}
			r, err := g.fresh(deck[i], mk)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// pairs draws rounds of deck in seeded order, two like requests per
// entry, so the traced and untraced halves of the traced run see the
// same mix.
func (g *gen) pairs(deck []spec, rounds int, mk makeFunc) ([][2]*request, error) {
	var out [][2]*request
	for k := 0; k < rounds; k++ {
		for _, i := range g.rng.Perm(len(deck)) {
			var p [2]*request
			for j := range p {
				r, err := g.fresh(deck[i], mk)
				if err != nil {
					return nil, err
				}
				p[j] = r
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// cold: every window request is a pair the daemon has never seen. Set
// up with one fresh pair per family, so lazy initialization is paid
// before the window.
func (in *inputs) cold(g *gen, n int, withTraced bool) (err error) {
	var first []spec
	for _, f := range cleanFamilies {
		first = append(first, spec{Family: f, TP: 2, Layers: 1})
	}
	if in.setup, err = g.requests(first, len(first), checkRequest); err != nil {
		return err
	}
	if in.window, err = g.requests(checkDeck(), n, checkRequest); err != nil {
		return err
	}
	if withTraced {
		if in.traced, err = g.pairs(checkDeck(), 1, checkRequest); err != nil {
			return err
		}
	}
	in.warmup, err = g.requests(checkDeck(), coldWarmupDecks*len(checkDeck()), checkRequest)
	return err
}

// warm: setup checks the warm set — whole warm decks until their
// verdicts reach warmWorkingSet — and the window re-sends it in seeded
// order.
func (in *inputs) warm(g *gen, n int, withTraced bool) error {
	deck := warmDeck()
	stored := 0
	for stored < warmWorkingSet {
		rs, err := g.requests(deck, len(deck), checkRequest)
		if err != nil {
			return err
		}
		for _, r := range rs {
			stored += r.ops
		}
		in.setup = append(in.setup, rs...)
	}
	for len(in.window) < n {
		for _, i := range g.rng.Perm(len(in.setup)) {
			if len(in.window) == n {
				break
			}
			in.window = append(in.window, in.setup[i])
		}
	}
	if withTraced {
		// The set's first len(deck) pairs are one whole deck; each is
		// sent twice, traced and untraced.
		for _, i := range g.rng.Perm(len(deck)) {
			in.traced = append(in.traced, [2]*request{in.setup[i], in.setup[i]})
		}
	}
	return nil
}

// recheck: every window request edits a fresh base, verified during
// setup, at editsPerRecheck seeded add/sum positions.
func (in *inputs) recheck(g *gen, n int, withTraced bool) (err error) {
	edit := func(s spec) (*request, error) {
		built, err := s.build()
		if err != nil {
			return nil, err
		}
		base, err := checkRequestFor(s, built)
		if err != nil {
			return nil, err
		}
		pos := swappable(built.Gs)
		if len(pos) < editsPerRecheck {
			return nil, fmt.Errorf("%s has %d swappable operators, want %d", s, len(pos), editsPerRecheck)
		}
		var edits []string
		for _, i := range g.rng.Perm(len(pos))[:editsPerRecheck] {
			edits = append(edits, pos[i])
		}
		in.setup = append(in.setup, base)
		return recheckRequest(s, built, edits)
	}
	if in.window, err = g.requests(recheckDeck(), n, edit); err != nil {
		return err
	}
	if withTraced {
		in.traced, err = g.pairs(recheckDeck(), tracedRecheckDecks, edit)
	}
	return err
}
