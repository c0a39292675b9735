package models

import (
	"fmt"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/shape"
	"entangle/internal/strategy"
	"entangle/internal/sym"
)

// GPTConfig is the default GPT sizing used by the evaluation: head
// count and widths divisible by every parallelism degree in Figure 4's
// sweep {2, 4, 6, 8}.
func GPTConfig() Config {
	return Config{Seq: 24, Hidden: 48, Heads: 24, FFN: 96, Vocab: 48, Layers: 1}
}

// GPT builds the Megatron-LM GPT workload (Table 2): embedding, N
// transformer layers (layernorm, multi-head attention, gelu MLP), a
// final layernorm and the vocabulary projection. Distribution
// strategies: TP, optional SP, optional VP; Bug7MissingAllReduce
// injects the Megatron misconfiguration into layer 0's MLP.
func GPT(opt Options) (*Built, error) {
	opt, err := opt.validated("gpt")
	if err != nil {
		return nil, err
	}
	c := opt.Cfg
	if c.Seq == 0 {
		c = GPTConfig()
		c.Layers = opt.Cfg.Layers
		if c.Layers == 0 {
			c.Layers = 1
		}
	}
	gs, err := gptSequential(c)
	if err != nil {
		return nil, err
	}
	env := strategy.NewEnv(gs, "gpt-dist", opt.TP)
	if err := gptDistributed(env, c, opt); err != nil {
		return nil, err
	}
	gd, err := env.Build()
	if err != nil {
		return nil, err
	}
	return &Built{Name: "GPT", Gs: gs, Gd: gd, Ri: env.Ri, Env: env}, nil
}

func gptSequential(c Config) (*graph.Graph, error) {
	b := graph.NewBuilder("gpt-seq", nil)
	S, H, F, V := int64(c.Seq), int64(c.Hidden), int64(c.FFN), int64(c.Vocab)
	ids := b.Input("ids", shape.Of(S))
	emb := b.Input("emb_w", shape.Of(V, H))
	x := b.Embedding("embed", emb, ids)
	for l := 0; l < c.Layers; l++ {
		p := func(s string) string { return fmt.Sprintf("L%d/%s", l, s) }
		ln1w := b.Input(p("ln1_w"), shape.Of(H))
		ln1b := b.Input(p("ln1_b"), shape.Of(H))
		qw := b.Input(p("q_w"), shape.Of(H, H))
		kw := b.Input(p("k_w"), shape.Of(H, H))
		vw := b.Input(p("v_w"), shape.Of(H, H))
		ow := b.Input(p("o_w"), shape.Of(H, H))
		ln2w := b.Input(p("ln2_w"), shape.Of(H))
		ln2b := b.Input(p("ln2_b"), shape.Of(H))
		fc1 := b.Input(p("fc1_w"), shape.Of(H, F))
		fc2 := b.Input(p("fc2_w"), shape.Of(F, H))

		a := b.LayerNorm(p("ln1"), x, ln1w, ln1b)
		q := b.MatMul(p("q"), a, qw)
		k := b.MatMul(p("k"), a, kw)
		v := b.MatMul(p("v"), a, vw)
		attn := b.Attention(p("attn"), q, k, v, int64(c.Heads))
		proj := b.MatMul(p("o"), attn, ow)
		res1 := b.Add(p("res1"), x, proj)
		m := b.LayerNorm(p("ln2"), res1, ln2w, ln2b)
		h := b.MatMul(p("fc1"), m, fc1)
		g := b.Unary(p("gelu"), "gelu", h)
		pj := b.MatMul(p("fc2"), g, fc2)
		x = b.Add(p("res2"), res1, pj)
	}
	fw := b.Input("final_ln_w", shape.Of(H))
	fb := b.Input("final_ln_b", shape.Of(H))
	lm := b.Input("lm_w", shape.Of(H, V))
	f := b.LayerNorm("final_ln", x, fw, fb)
	logits := b.MatMul("lm_head", f, lm)
	b.Output(logits)
	return b.Build()
}

func gptDistributed(e *strategy.Env, c Config, opt Options) error {
	R := e.R
	b := e.B
	S, H := int64(c.Seq), int64(c.Hidden)
	Sh := S / int64(R)
	Vh := int64(c.Vocab) / int64(R)

	ids := e.Replicate("ids")

	// Embedding: VP shards the table rows; otherwise it is shared and
	// each rank performs the full lookup.
	var x []graph.TensorID
	if opt.VP {
		shards := e.Shard("emb_w", 0)
		partials := make([]graph.TensorID, R)
		for r := 0; r < R; r++ {
			partials[r] = b.EmbeddingShard(fmt.Sprintf("r%d/embed", r),
				shards[r], ids[r], sym.Const(int64(r)*Vh))
		}
		if opt.SP {
			x = b.ReduceScatter("embed/reducescatter", 0, partials...)
		} else {
			x = b.AllReduce("embed/allreduce", partials...)
		}
	} else {
		emb := e.Shared("emb_w")
		x = make([]graph.TensorID, R)
		for r := 0; r < R; r++ {
			full := b.Embedding(fmt.Sprintf("r%d/embed", r), emb, ids[r])
			if opt.SP {
				x[r] = b.Slice(fmt.Sprintf("r%d/embed_scatter", r), full,
					sym.Const(0), sym.Const(int64(r)*Sh), sym.Const(int64(r+1)*Sh))
			} else {
				x[r] = full
			}
		}
	}

	for l := 0; l < c.Layers; l++ {
		p := func(s string) string { return fmt.Sprintf("L%d/%s", l, s) }
		ln1w := e.Shared(p("ln1_w"))
		ln1b := e.Shared(p("ln1_b"))
		ln2w := e.Shared(p("ln2_w"))
		ln2b := e.Shared(p("ln2_b"))

		// Attention block.
		a := make([]graph.TensorID, R)
		for r := 0; r < R; r++ {
			a[r] = b.LayerNorm(fmt.Sprintf("r%d/%s", r, p("ln1")), x[r], ln1w, ln1b)
		}
		if opt.SP {
			a = e.AllGatherSeq(p("ln1/allgather"), a)
		}
		q := e.ColumnParallelLinear(p("q"), a, p("q_w"))
		k := e.ColumnParallelLinear(p("k"), a, p("k_w"))
		v := e.ColumnParallelLinear(p("v"), a, p("v_w"))
		attn := make([]graph.TensorID, R)
		for r := 0; r < R; r++ {
			attn[r] = b.Attention(fmt.Sprintf("r%d/%s", r, p("attn")),
				q[r], k[r], v[r], int64(c.Heads/R))
		}
		mode := strategy.ReduceAllReduce
		if opt.SP {
			mode = strategy.ReduceScatterSeq
		}
		proj := e.RowParallelLinear(p("o"), attn, p("o_w"), mode)
		res1 := make([]graph.TensorID, R)
		for r := 0; r < R; r++ {
			res1[r] = b.Add(fmt.Sprintf("r%d/%s", r, p("res1")), x[r], proj[r])
		}

		// MLP block.
		m := make([]graph.TensorID, R)
		for r := 0; r < R; r++ {
			m[r] = b.LayerNorm(fmt.Sprintf("r%d/%s", r, p("ln2")), res1[r], ln2w, ln2b)
		}
		if opt.SP {
			m = e.AllGatherSeq(p("ln2/allgather"), m)
		}
		h := e.ColumnParallelLinear(p("fc1"), m, p("fc1_w"))
		g := make([]graph.TensorID, R)
		for r := 0; r < R; r++ {
			g[r] = b.Unary(fmt.Sprintf("r%d/%s", r, p("gelu")), "gelu", h[r])
		}
		mlpMode := mode
		if opt.Bug == Bug7MissingAllReduce && l == 0 {
			// The Megatron misconfiguration: gradients/partials from
			// the row-parallel linear are never combined.
			mlpMode = strategy.ReduceNone
		}
		pj := e.RowParallelLinear(p("fc2"), g, p("fc2_w"), mlpMode)
		if mlpMode == strategy.ReduceNone && opt.SP {
			// Under SP the residual stream is sequence-sharded, so the
			// defect keeps each rank's own sequence slice of its
			// unreduced partial sum: the reduce of the reduce-scatter
			// is what is missing.
			for r := 0; r < R; r++ {
				pj[r] = b.Slice(fmt.Sprintf("r%d/%s", r, p("fc2_scatter")), pj[r],
					sym.Const(0), sym.Const(int64(r)*Sh), sym.Const(int64(r+1)*Sh))
			}
		}
		for r := 0; r < R; r++ {
			x[r] = b.Add(fmt.Sprintf("r%d/%s", r, p("res2")), res1[r], pj[r])
		}
	}

	fw := e.Shared("final_ln_w")
	fb := e.Shared("final_ln_b")
	f := make([]graph.TensorID, R)
	for r := 0; r < R; r++ {
		f[r] = b.LayerNorm(fmt.Sprintf("r%d/final_ln", r), x[r], fw, fb)
	}
	if opt.SP {
		f = e.AllGatherSeq("final_ln/allgather", f)
	}
	logits := e.ColumnParallelLinear("lm_head", f, "lm_w")
	b.Output(logits...)
	_ = H
	_ = expr.OpTensor
	return b.Err()
}
