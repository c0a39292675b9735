package models

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"entangle/internal/core"
	"entangle/internal/graph"
	"entangle/internal/numeric"
	"entangle/internal/relation"
)

// verify runs the refinement check.
func verify(t *testing.T, b *Built) *core.Report {
	t.Helper()
	report, err := core.NewChecker(core.Options{}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("%s: refinement failed: %v", b.Name, err)
	}
	if !report.OutputRelation.Complete(b.Gs.Outputs) {
		t.Fatalf("%s: output relation incomplete", b.Name)
	}
	return report
}

// diffTest runs both graphs on random inputs, applies the verified
// output relation, and checks bit-level agreement (within float tol).
func diffTest(t *testing.T, b *Built, report *core.Report, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gsIn := map[string]*numeric.Dense{}
	for _, in := range b.Gs.Inputs {
		tt := b.Gs.Tensor(in)
		dims, err := tt.Shape.Concrete(nil)
		if err != nil {
			t.Fatalf("symbolic input %q needs env", tt.Name)
		}
		if tt.Name == "ids" {
			// integer ids within vocabulary
			vocabT, ok := b.Gs.TensorByName("emb_w")
			hi := 8
			if ok {
				v, _ := vocabT.Shape[0].IsConst()
				hi = int(v)
			}
			gsIn[tt.Name] = numeric.RandInts(rng, hi, dims...)
			continue
		}
		gsIn[tt.Name] = numeric.Rand(rng, dims...)
	}
	gsVals, err := numeric.EvalGraph(b.Gs, gsIn, nil)
	if err != nil {
		t.Fatalf("%s: eval G_s: %v", b.Name, err)
	}
	gdIn, err := b.Env.SplitInputs(gsIn)
	if err != nil {
		t.Fatalf("%s: split inputs: %v", b.Name, err)
	}
	gdVals, err := numeric.EvalGraph(b.Gd, gdIn, nil)
	if err != nil {
		t.Fatalf("%s: eval G_d: %v", b.Name, err)
	}
	lookup := func(tid int) (*numeric.Dense, error) {
		if !relation.IsGd(tid) {
			return nil, errors.New("relation references G_s tensor")
		}
		v, ok := gdVals[relation.GdTensorID(tid)]
		if !ok {
			return nil, errors.New("missing G_d value")
		}
		return v, nil
	}
	for _, o := range b.Gs.Outputs {
		maps := report.OutputRelation.Get(o)
		if len(maps) == 0 {
			t.Fatalf("%s: no mapping for output %q", b.Name, b.Gs.Tensor(o).Name)
		}
		for _, m := range maps {
			got, err := numeric.EvalTerm(m, nil, lookup)
			if err != nil {
				t.Fatalf("%s: eval relation %s: %v", b.Name, m, err)
			}
			if !numeric.AllClose(gsVals[o], got, 1e-9) {
				t.Fatalf("%s: relation %s does not reconstruct %q (max diff %g)",
					b.Name, m, b.Gs.Tensor(o).Name, numeric.MaxAbsDiff(gsVals[o], got))
			}
		}
	}
}

func TestGPTTPRefines(t *testing.T) {
	b, err := GPT(Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	report := verify(t, b)
	diffTest(t, b, report, 1)
}

func TestGPTTPSPRefines(t *testing.T) {
	b, err := GPT(Options{TP: 2, SP: true})
	if err != nil {
		t.Fatal(err)
	}
	report := verify(t, b)
	diffTest(t, b, report, 2)
}

func TestGPTTPSPVPRefines(t *testing.T) {
	b, err := GPT(Options{TP: 2, SP: true, VP: true})
	if err != nil {
		t.Fatal(err)
	}
	report := verify(t, b)
	diffTest(t, b, report, 3)
}

func TestGPTDegree4(t *testing.T) {
	b, err := GPT(Options{TP: 4, SP: true, VP: true})
	if err != nil {
		t.Fatal(err)
	}
	report := verify(t, b)
	diffTest(t, b, report, 4)
}

func TestGPTTwoLayers(t *testing.T) {
	b, err := GPT(Options{TP: 2, SP: true, Cfg: Config{Layers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, b)
}

func TestGPTBug7Detected(t *testing.T) {
	b, err := GPT(Options{TP: 2, Bug: Bug7MissingAllReduce})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.NewChecker(core.Options{}).Check(b.Gs, b.Gd, b.Ri)
	var re *core.RefinementError
	if !errors.As(err, &re) {
		t.Fatalf("bug 7 must be detected, got %v", err)
	}
	t.Logf("bug 7 localized to %q", re.Op.Label)
	// As in the paper, the error surfaces at the operator consuming
	// the uncombined partials: res2 itself still maps cleanly as
	// sum(res1_r, P_0, P_1), so the first unmappable operator is its
	// consumer — the final layernorm in this one-layer model.
	if re.Op.Label != "final_ln" {
		t.Fatalf("unexpected localization %q", re.Op.Label)
	}
}

func TestGPTBug7DetectedTwoLayers(t *testing.T) {
	// With a second layer the consumer is the next layer's layernorm.
	b, err := GPT(Options{TP: 2, Bug: Bug7MissingAllReduce, Cfg: Config{Layers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.NewChecker(core.Options{}).Check(b.Gs, b.Gd, b.Ri)
	var re *core.RefinementError
	if !errors.As(err, &re) {
		t.Fatalf("bug 7 must be detected, got %v", err)
	}
	if re.Op.Label != "L1/ln1" {
		t.Fatalf("localized to %q, want L1/ln1", re.Op.Label)
	}
}

func TestGPTBug7NumericDivergence(t *testing.T) {
	// Sanity: the injected bug must actually change the numbers.
	good, err := GPT(Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := GPT(Options{TP: 2, Bug: Bug7MissingAllReduce})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	gsIn := map[string]*numeric.Dense{}
	for _, in := range good.Gs.Inputs {
		tt := good.Gs.Tensor(in)
		dims, _ := tt.Shape.Concrete(nil)
		if tt.Name == "ids" {
			gsIn[tt.Name] = numeric.RandInts(rng, 8, dims...)
		} else {
			gsIn[tt.Name] = numeric.Rand(rng, dims...)
		}
	}
	run := func(b *Built) *numeric.Dense {
		in, err := b.Env.SplitInputs(gsIn)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := numeric.EvalGraph(b.Gd, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		return vals[b.Gd.Outputs[0]]
	}
	if numeric.AllClose(run(good), run(bad), 1e-9) {
		t.Fatal("bug 7 injection did not change the computation")
	}
}

func TestGPTOperatorCounts(t *testing.T) {
	b, err := GPT(Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.OperatorTotal() < 20 {
		t.Fatalf("implausibly small graphs: %d ops", b.OperatorTotal())
	}
	if err := b.Gs.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Gd.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = graph.NoProducer
}

// TestGPTBug7UnderSP injects bug 7 under sequence parallelism, where
// each rank keeps its own sequence slice of the unreduced partial sum.
// Every combination must build (no panic, no shape error) and fail
// refinement where the TP-only injection does: at the first
// non-linear consumer of the residual stream.
func TestGPTBug7UnderSP(t *testing.T) {
	for _, tp := range []int{2, 4} {
		for layers := 1; layers <= 3; layers++ {
			for _, vp := range []bool{false, true} {
				name := fmt.Sprintf("tp%d/L%d/vp=%t", tp, layers, vp)
				t.Run(name, func(t *testing.T) {
					c := GPTConfig()
					c.Layers = layers
					b, err := GPT(Options{Cfg: c, TP: tp, SP: true, VP: vp, Bug: Bug7MissingAllReduce})
					if err != nil {
						t.Fatal(err)
					}
					_, err = core.NewChecker(core.Options{}).Check(b.Gs, b.Gd, b.Ri)
					var re *core.RefinementError
					if !errors.As(err, &re) {
						t.Fatalf("bug 7 under SP must be detected, got %v", err)
					}
					want := "L1/ln1"
					if layers == 1 {
						want = "final_ln"
					}
					if re.Op.Label != want {
						t.Fatalf("localized to %q, want %q", re.Op.Label, want)
					}
				})
			}
		}
	}
}
