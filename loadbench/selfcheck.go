package main

import (
	"fmt"

	"entangle/internal/server"
)

// selfCheck compares the daemon's /v1/stats deltas over the window
// with the generator's own counts, and asserts each workload's
// freshness: cold-check replays nothing, warm-check replays
// everything, every recheck candidate is unseen.
func selfCheck(w workload, outs []outcome, before, after server.StatsResponse) []string {
	var refined, failed, lookups, misses, storesLo, storesHi int64
	seen := map[string]bool{}
	for _, o := range outs {
		r := o.req
		n := int64(r.ops)
		switch {
		case r.path == "/v1/recheck":
			refined += int64(len(r.cands))
			// One probe per base operator for the base check; per
			// candidate one per operator at plan time and one per base
			// operator to classify newly failing ones.
			lookups += n + 2*n*int64(len(r.cands))
			for _, c := range r.cands {
				misses += int64(c.cone)
				storesLo += int64(c.cone)
				storesHi += int64(c.cone)
				key := r.spec.String() + "/" + c.edit
				if seen[key] {
					return []string{fmt.Sprintf("candidate %s sent twice", key)}
				}
				seen[key] = true
			}
		case r.failsAt != "":
			failed++
			lookups += n
			if w.name == "cold-check" {
				misses += n
				storesHi += n // a failing check stores what ran before the failure
			}
		default:
			refined++
			lookups += n
			if w.name == "cold-check" {
				misses += n
				storesLo += n
				storesHi += n
			}
		}
	}
	b, a := before.Cache, after.Cache
	hits, gotMisses, stores := a.Hits-b.Hits, a.Misses-b.Misses, a.Stores-b.Stores
	var errs []string
	expect := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Sprintf("/v1/stats %s delta %d, generator counted %d", what, got, want))
		}
	}
	expect("requests", after.Requests-before.Requests, int64(len(outs)))
	expect("refined", after.Refined-before.Refined, refined)
	expect("failed", after.Failed-before.Failed, failed)
	expect("errors", after.Errors-before.Errors, 0)
	expect("cache lookups", hits+gotMisses, lookups)
	expect("cache misses", gotMisses, misses)
	expect("cache corrupt", a.Corrupt-b.Corrupt, 0)
	if stores < storesLo || stores > storesHi {
		errs = append(errs, fmt.Sprintf("/v1/stats cache stores delta %d, generator expected %d..%d", stores, storesLo, storesHi))
	}
	switch w.name {
	case "cold-check":
		expect("cache hits (cold-check must replay nothing)", hits, 0)
	case "warm-check":
		expect("cache misses (warm-check must replay everything)", gotMisses, 0)
	}
	return errs
}

// validateFamilies numerically validates the first correct refined
// request of each model family, outside the timed window. A mismatch
// marks that request failed.
func validateFamilies(outs []outcome, seed int64) []string {
	done := map[string]bool{}
	var errs []string
	for i := range outs {
		o := &outs[i]
		if o.err != nil || o.req.failsAt != "" || done[o.req.spec.Family] {
			continue
		}
		done[o.req.spec.Family] = true
		if err := validateNumeric(o.req, o.rep, uint64(seed)); err != nil {
			o.err = fmt.Errorf("%s: numeric validation: %w", o.req.spec, err)
			errs = append(errs, o.err.Error())
		}
	}
	fmt.Printf("numeric validation: %d families, %d mismatches\n", len(done), len(errs))
	return errs
}
