package main

import (
	"fmt"

	"entangle/internal/graph"
	"entangle/internal/models"
)

// A family is one model-zoo entry the generator draws requests from:
// a Table 2 workload under one distribution strategy.
type family struct {
	name string
	// hlo sends the graphs as HLO text (format "hlo") instead of the
	// JSON interchange format.
	hlo bool
	// seqStep is the granularity of the sequence (or batch) extent:
	// every drawn Seq is a multiple of it, so SP splits and gradient
	// accumulation microbatches stay even at TP 2 and 4.
	seqStep int
	build   func(tp, layers, seq int, bug models.Bug) (*models.Built, error)
}

// families is the request zoo. Concrete extents come from the seed
// (Seq only): the verdict-cache keys hash G_d's digest, so a new Seq
// gives a pair no earlier request shares, while the checker's cost is
// structural and barely moves with Seq.
var families = []family{
	{name: "gpt-tp-sp-vp", seqStep: 4, build: func(tp, layers, seq int, bug models.Bug) (*models.Built, error) {
		c := models.GPTConfig()
		c.Seq, c.Layers = seq, layers
		return models.GPT(models.Options{Cfg: c, TP: tp, SP: true, VP: true, Bug: bug})
	}},
	{name: "gpt-tp-sp", seqStep: 4, build: func(tp, layers, seq int, bug models.Bug) (*models.Built, error) {
		c := models.GPTConfig()
		c.Seq, c.Layers = seq, layers
		return models.GPT(models.Options{Cfg: c, TP: tp, SP: true, Bug: bug})
	}},
	// gpt-tp carries only bug 7, the way Table 3 reproduces it (TP
	// without SP).
	{name: "gpt-tp", seqStep: 4, build: func(tp, layers, seq int, bug models.Bug) (*models.Built, error) {
		c := models.GPTConfig()
		c.Seq, c.Layers = seq, layers
		return models.GPT(models.Options{Cfg: c, TP: tp, Bug: bug})
	}},
	{name: "llama3-hlo", hlo: true, seqStep: 4, build: func(tp, layers, seq int, bug models.Bug) (*models.Built, error) {
		c := models.LlamaConfig()
		c.Seq, c.Layers = seq, layers
		return models.Llama(models.Options{Cfg: c, TP: tp, Bug: bug})
	}},
	{name: "qwen2", seqStep: 4, build: func(tp, layers, seq int, bug models.Bug) (*models.Built, error) {
		c := models.LlamaConfig()
		c.Seq, c.Layers = seq, layers
		return models.Qwen2(models.Options{Cfg: c, TP: tp, Bug: bug})
	}},
	{name: "seedmoe", seqStep: 4, build: func(tp, layers, seq int, bug models.Bug) (*models.Built, error) {
		c := models.SeedMoEConfig()
		c.Seq, c.Layers, c.Experts = seq, layers, tp
		return models.SeedMoE(models.Options{Cfg: c, TP: tp, SP: true, Bug: bug})
	}},
	{name: "seedmoe-bwd", seqStep: 4, build: func(tp, layers, seq int, bug models.Bug) (*models.Built, error) {
		c := models.SeedMoEConfig()
		c.Seq, c.Layers, c.Experts = seq, layers, tp
		return models.SeedMoEBwd(models.Options{Cfg: c, TP: tp, Bug: bug})
	}},
	{name: "regression-grad-accum", seqStep: 4, build: func(tp, layers, seq int, bug models.Bug) (*models.Built, error) {
		c := models.RegressionConfig()
		c.Seq, c.Layers = seq, layers
		return models.Regression(models.Options{Cfg: c, TP: tp, GradAccum: tp, Bug: bug})
	}},
}

func familyByName(name string) *family {
	for i := range families {
		if families[i].name == name {
			return &families[i]
		}
	}
	return nil
}

// spec names one model pair: everything the generator decides before
// the pair is built.
type spec struct {
	Family string
	TP     int
	Layers int
	Seq    int
	Bug    models.Bug
}

func (s spec) String() string {
	b := ""
	if s.Bug != models.BugNone {
		b = " " + s.Bug.String()
	}
	return fmt.Sprintf("%s tp%d L%d seq%d%s", s.Family, s.TP, s.Layers, s.Seq, b)
}

func (s spec) build() (*models.Built, error) {
	f := familyByName(s.Family)
	if f == nil {
		return nil, fmt.Errorf("unknown family %q", s.Family)
	}
	b, err := f.build(s.TP, s.Layers, s.Seq, s.Bug)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", s, err)
	}
	return b, nil
}

// bugShape is one injected §6.2 defect with the operator the checker
// must name. The table is written from the paper's bug descriptions
// and the model builders' injection sites, not from checker output.
type bugShape struct {
	bug    models.Bug
	family string
	tp     int
	layers int
	// failsAt is the G_s operator label a correct checker reports.
	failsAt string
}

var bugTable = []bugShape{
	{models.Bug1RoPEOffset, "seedmoe", 2, 1, "L0/rope"},
	{models.Bug2AuxLossScale, "seedmoe", 2, 2, "L0/auxloss"},
	{models.Bug3PadSlice, "seedmoe", 2, 3, "L0/q"},
	{models.Bug4ShardedExperts, "seedmoe", 2, 1, "L0/moe/expert0/fc1"},
	{models.Bug6GradAccumScale, "regression-grad-accum", 2, 1, "mse"},
	// A missing all-reduce leaves per-rank partial sums, which stay
	// mappable (as a sum) through the residual add; the first
	// non-linear consumer, the final layernorm, is where no clean
	// mapping exists.
	{models.Bug7MissingAllReduce, "gpt-tp", 2, 1, "final_ln"},
}

func expectedFailure(b models.Bug) string {
	for _, s := range bugTable {
		if s.bug == b {
			return s.failsAt
		}
	}
	return ""
}

// nodeByLabel finds a G_s operator by label.
func nodeByLabel(g *graph.Graph, label string) *graph.Node {
	for _, n := range g.Nodes {
		if n.Label == label {
			return n
		}
	}
	return nil
}
