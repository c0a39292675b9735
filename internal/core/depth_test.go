package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/vcache"
)

// depthFamilies are the layered workloads of the depth-shape contract.
var depthFamilies = []struct {
	name  string
	build func(tp, layers int) (*models.Built, error)
}{
	{"gpt-tp-sp", func(tp, layers int) (*models.Built, error) {
		c := models.GPTConfig()
		c.Layers = layers
		return models.GPT(models.Options{Cfg: c, TP: tp, SP: true})
	}},
	{"gpt-tp-sp-vp", func(tp, layers int) (*models.Built, error) {
		c := models.GPTConfig()
		c.Layers = layers
		return models.GPT(models.Options{Cfg: c, TP: tp, SP: true, VP: true})
	}},
	{"llama3", func(tp, layers int) (*models.Built, error) {
		c := models.LlamaConfig()
		c.Layers = layers
		return models.Llama(models.Options{Cfg: c, TP: tp})
	}},
	{"qwen2", func(tp, layers int) (*models.Built, error) {
		c := models.LlamaConfig()
		c.Layers = layers
		return models.Qwen2(models.Options{Cfg: c, TP: tp})
	}},
	{"seedmoe", func(tp, layers int) (*models.Built, error) {
		c := models.SeedMoEConfig()
		c.Layers, c.Experts = layers, tp
		return models.SeedMoE(models.Options{Cfg: c, TP: tp, SP: true})
	}},
}

// TestDepthLocalOperatorCost is Figure 4's shape as a deterministic
// contract: an operator costs the same whichever layer it sits in, so
// a 3-layer model's largest per-operator e-graph matches the 1-layer
// model's, and its saturation matches per G_s operator stay flat.
func TestDepthLocalOperatorCost(t *testing.T) {
	for _, f := range depthFamilies {
		for _, tp := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/tp%d", f.name, tp), func(t *testing.T) {
				check := func(layers int) *Report {
					b, err := f.build(tp, layers)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := NewChecker(Options{Workers: 1}).Check(b.Gs, b.Gd, b.Ri)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				one, three := check(1), check(3)
				if float64(three.Stats.Nodes) > 1.1*float64(one.Stats.Nodes) {
					t.Errorf("max per-operator e-nodes grew with depth: %d at 1 layer, %d at 3",
						one.Stats.Nodes, three.Stats.Nodes)
				}
				perOp := func(r *Report) float64 { return float64(r.Stats.Matches) / float64(r.OpsProcessed) }
				if perOp(three) > 1.25*perOp(one) {
					t.Errorf("matches per operator grew with depth: %.0f at 1 layer, %.0f at 3",
						perOp(one), perOp(three))
				}
			})
		}
	}
}

// gatheredInput builds G_s: Y = gelu(X), and a two-rank G_d that
// reads X's shards x0, x1 through an identity per rank. Each identity
// feeds an all-gather, whose replicas R_i also maps X to, and that
// rank's gelu. The replicas are X's fewest-leaf mappings and the
// shards are read only on the way to them, so the local tier drops
// concat(x0, x1) and never folds the rank-local gelus: only the full
// tier can map Y. With direct, the gather and the gelus read the
// shards themselves; with swapped, rank 1 applies gelu to rank 0's
// shard.
func gatheredInput(t *testing.T, direct, swapped bool) (*graph.Graph, *graph.Graph, *relation.Relation) {
	t.Helper()
	bs := graph.NewBuilder("Gs", nil)
	X := bs.Input("X", shape.Of(4, 6))
	bs.Output(bs.Unary("gelu", "gelu", X))
	gs, err := bs.Build()
	if err != nil {
		t.Fatal(err)
	}
	bd := graph.NewBuilder("Gd", nil)
	x0 := bd.Input("x0", shape.Of(2, 6))
	x1 := bd.Input("x1", shape.Of(2, 6))
	n0, n1 := x0, x1
	if !direct {
		n0, n1 = bd.Identity("r0/id", x0), bd.Identity("r1/id", x1)
	}
	g := bd.AllGather("gather", 0, n0, n1)
	in1 := n1
	if swapped {
		in1 = n0
	}
	bd.Output(bd.Unary("r0/gelu", "gelu", n0), bd.Unary("r1/gelu", "gelu", in1))
	gd, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	ri := relation.New()
	ri.Add(X, expr.ConcatI(0, relation.GdLeaf(gd.Tensor(x0)), relation.GdLeaf(gd.Tensor(x1))))
	for _, r := range g {
		ri.Add(X, relation.GdLeaf(gd.Tensor(r)))
	}
	return gs, gd, ri
}

// tiers runs the only operator of gatheredInput's G_s both ways: the
// local tier alone, then processOp with its full-tier fallback.
func tiers(t *testing.T, swapped bool) (localErr error, work, final egraph.Stats, err error) {
	t.Helper()
	gs, gd, ri := gatheredInput(t, false, swapped)
	run, err := NewChecker(Options{Workers: 1}).newRunState(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	v := gs.Nodes[0]
	local := [][]*expr.Term{run.localMappings(run.rel.Get(v.Inputs[0]))}
	if len(local[0]) != 2 {
		t.Fatalf("local tier should seed only the two replicas, got %v", local[0])
	}
	_, _, localErr = run.saturateOp(context.Background(), v, run.opts.Saturate, local)
	work, final, _, err = run.processOp(context.Background(), v, run.opts.Saturate)
	return localErr, work, final, err
}

// TestLocalTierKeepsShardsReadElsewhere: when the ranks read X's
// shards directly, concat(x0, x1) reaches consumers the replicas never
// feed, so the local tier keeps it and maps Y without the full tier.
func TestLocalTierKeepsShardsReadElsewhere(t *testing.T) {
	gs, gd, ri := gatheredInput(t, true, false)
	run, err := NewChecker(Options{Workers: 1}).newRunState(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	all := run.rel.Get(gs.Inputs[0])
	if local := run.localMappings(all); len(local) != len(all) {
		t.Fatalf("local tier dropped a mapping read elsewhere: %v of %v", local, all)
	}
	if _, err := NewChecker(Options{}).Check(gs, gd, ri); err != nil {
		t.Fatalf("check: %v", err)
	}
}

// TestFullTierRescuesOperator: an operator the local tier cannot map
// still refines, through the full tier.
func TestFullTierRescuesOperator(t *testing.T) {
	localErr, work, final, err := tiers(t, false)
	var re *RefinementError
	if !errors.As(localErr, &re) {
		t.Fatalf("local tier alone should fail, got %v", localErr)
	}
	if err != nil {
		t.Fatalf("full tier must refine: %v", err)
	}
	if work.Runs <= final.Runs {
		t.Fatalf("both tiers' work should be counted: work %d runs, final %d", work.Runs, final.Runs)
	}
	gs, gd, ri := gatheredInput(t, false, false)
	if _, err := NewChecker(Options{}).Check(gs, gd, ri); err != nil {
		t.Fatalf("check: %v", err)
	}
}

// TestFullTierDisprovedStaysDisproved: a defect found after both tiers
// is Disproved, not Inconclusive — the verdict comes from the full
// tier's own fixpoint — while the report counts both tiers' work.
func TestFullTierDisprovedStaysDisproved(t *testing.T) {
	_, work, final, err := tiers(t, true)
	var re *RefinementError
	if !errors.As(err, &re) {
		t.Fatalf("swapped shard must fail, got %v", err)
	}
	if !final.Saturated || work.Runs <= final.Runs {
		t.Fatalf("want a saturated full tier after a local one: work %+v, final %+v", work, final)
	}
	gs, gd, ri := gatheredInput(t, false, true)
	rep, err := NewChecker(Options{KeepGoing: true}).Check(gs, gd, ri)
	if !errors.As(err, &re) || len(rep.Failures) != 1 {
		t.Fatalf("want one failure, got %v", err)
	}
	if got := rep.Failures[0]; got.Kind != VerdictDisproved || got.Op.Label != "gelu" {
		t.Fatalf("verdict %v at %q, want disproved at gelu", got.Kind, got.Op.Label)
	}
	if rep.LiveStats.Runs != work.Runs {
		t.Fatalf("report counts %d runs, both tiers ran %d", rep.LiveStats.Runs, work.Runs)
	}
}

// recordingStore passes through to a vcache and remembers every entry
// stored, by key.
type recordingStore struct {
	*vcache.Cache
	puts map[fingerprint.Hash]*vcache.Entry
}

func (s *recordingStore) Put(key fingerprint.Hash, e *vcache.Entry) error {
	s.puts[key] = e
	return s.Cache.Put(key, e)
}

// TestCacheVersionBumpMisses re-keys a cold run's verdicts under an
// earlier checker version: none may be reused. The same entries keyed
// under the current version all replay, which shows the test derives
// keys the way the checker does.
func TestCacheVersionBumpMisses(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2, SP: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1}.withDefaults()
	rec := &recordingStore{Cache: openCache(t), puts: map[fingerprint.Hash]*vcache.Entry{}}
	opts.Cache = rec
	if _, err := NewChecker(opts).Check(b.Gs, b.Gd, b.Ri); err != nil {
		t.Fatal(err)
	}
	gdix, err := fingerprint.NewGdIndex(b.Gd)
	if err != nil {
		t.Fatal(err)
	}
	cones := fingerprint.NewConeHasher(b.Gs, b.Ri, gdix)
	key := func(version string, v *graph.Node) fingerprint.Hash {
		ambient := fingerprint.Ambient(version, opts.Registry.Fingerprint(),
			[]byte(opts.cacheOptionsString()), fingerprint.GraphDigest(b.Gd), b.Gs.Ctx)
		return fingerprint.Key(ambient, cones.Node(v.ID))
	}
	rekeyed := func(version string) *vcache.Cache {
		cache := openCache(t)
		for _, v := range b.Gs.Nodes {
			e := rec.puts[key(CheckerVersion, v)]
			if e == nil {
				t.Fatalf("no stored verdict for %s", v.Label)
			}
			if err := cache.Put(key(version, v), e); err != nil {
				t.Fatal(err)
			}
		}
		return cache
	}
	check := func(cache *vcache.Cache) CacheStats {
		o := opts
		o.Cache = cache
		rep, err := NewChecker(o).Check(b.Gs, b.Gd, b.Ri)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cache
	}
	if st := check(rekeyed("entangle-core/2")); st.Hits != 0 {
		t.Fatalf("verdicts keyed under entangle-core/2 were reused: %+v", st)
	}
	if st := check(rekeyed(CheckerVersion)); st.Hits != int64(len(b.Gs.Nodes)) || st.Misses != 0 {
		t.Fatalf("re-keyed current-version verdicts should all replay: %+v", st)
	}
}
