package nwhy

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"nwhy/internal/parallel"
)

// TestBoundHandleNeverUsesDefaultPool: a handle bound to a live private
// engine runs every loop of every exported method — of NWHypergraph,
// Mutation, IncrementalSCC, SLineGraph and WeightedSLineGraph — on that
// engine, so the process default pool is handed no task. The list is
// checked against the method sets: a new exported method fails the test
// until it is listed here.
func TestBoundHandleNeverUsesDefaultPool(t *testing.T) {
	eng := NewEngine(2)
	defer eng.Close()
	g := engineTestHypergraph(t).WithEngine(eng)
	ctx := context.Background()
	dir := t.TempDir()
	ids := []uint32{0, 1, 2, 3, 400, 401}
	var (
		m    *Mutation
		view = g.IncrementalSCC(2)
		lg   *SLineGraph
		wl   *WeightedSLineGraph
	)
	addEdge := func(members ...uint32) {
		if err := g.Mutate(func(m *Mutation) error {
			_, err := m.AddEdge(members)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	labels := func() {
		if _, _, err := view.Labels(ctx); err != nil {
			t.Fatal(err)
		}
	}
	type call struct {
		name string
		run  func()
	}
	calls := []call{
		{"NWHypergraph.Engine", func() { g.Engine() }},
		{"NWHypergraph.WithEngine", func() { g.WithEngine(eng) }},
		{"NWHypergraph.Epoch", func() { g.Epoch() }},
		{"NWHypergraph.Hypergraph", func() { g.Hypergraph() }},
		{"NWHypergraph.NumEdges", func() { g.NumEdges() }},
		{"NWHypergraph.NumNodes", func() { g.NumNodes() }},
		{"NWHypergraph.NumIncidences", func() { g.NumIncidences() }},
		{"NWHypergraph.EdgeDegree", func() { g.EdgeDegree(0) }},
		{"NWHypergraph.NodeDegree", func() { g.NodeDegree(0) }},
		{"NWHypergraph.Incidence", func() { g.Incidence(0) }},
		{"NWHypergraph.Memberships", func() { g.Memberships(0) }},
		{"NWHypergraph.Dual", func() { g.Dual().ConnectedComponents(CCHyper) }},
		{"NWHypergraph.Stats", func() { g.Stats() }},
		{"NWHypergraph.Validate", func() {
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
		}},
		{"NWHypergraph.EdgeSizeDist", func() { g.EdgeSizeDist() }},
		{"NWHypergraph.NodeDegreeDist", func() { g.NodeDegreeDist() }},
		{"NWHypergraph.HyperCoreness", func() { g.HyperCoreness() }},
		{"NWHypergraph.HyperTree", func() { g.HyperTree(0) }},
		{"NWHypergraph.BFS", func() { g.BFS(0, BFSDirectionOptimizing) }},
		{"NWHypergraph.BFSCtx", func() {
			for _, v := range []BFSVariant{BFSTopDown, BFSBottomUp, BFSAdjoin, BFSHygraBaseline, BFSDirectionOptimizing} {
				if _, err := g.BFSCtx(ctx, 0, v); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"NWHypergraph.ConnectedComponents", func() { g.ConnectedComponents(CCHyper) }},
		{"NWHypergraph.ConnectedComponentsCtx", func() {
			for _, v := range []CCVariant{CCHyper, CCAdjoinAfforest, CCAdjoinLabelProp, CCHygraBaseline} {
				if _, err := g.ConnectedComponentsCtx(ctx, v); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"NWHypergraph.HyperPageRank", func() { g.HyperPageRank(0.85, 1e-9, 50) }},
		{"NWHypergraph.HyperPageRankCtx", func() { g.HyperPageRankCtx(ctx, 0.85, 1e-9, 50) }},
		{"NWHypergraph.Adjoin", func() { g.Adjoin() }},
		{"NWHypergraph.AdjoinBetweenness", func() { g.AdjoinBetweenness(true) }},
		{"NWHypergraph.AdjoinCloseness", func() { g.AdjoinCloseness() }},
		{"NWHypergraph.AdjoinEccentricity", func() { g.AdjoinEccentricity() }},
		{"NWHypergraph.AdjoinPageRank", func() { g.AdjoinPageRank(0.85, 1e-9, 50) }},
		{"NWHypergraph.Toplexes", func() { g.Toplexes() }},
		{"NWHypergraph.ToplexesCtx", func() { g.ToplexesCtx(ctx) }},
		{"NWHypergraph.Toplexify", func() { g.Toplexify().Stats() }},
		{"NWHypergraph.CollapseEdges", func() { g.CollapseEdges() }},
		{"NWHypergraph.CollapseNodes", func() { g.CollapseNodes() }},
		{"NWHypergraph.CollapseNodesAndEdges", func() { g.CollapseNodesAndEdges() }},
		{"NWHypergraph.RestrictToEdges", func() { g.RestrictToEdges(ids).Validate() }},
		{"NWHypergraph.RestrictToNodes", func() { g.RestrictToNodes(ids).Validate() }},
		{"NWHypergraph.CliqueExpansion", func() { g.CliqueExpansion() }},
		{"NWHypergraph.CliqueExpansionCtx", func() { g.CliqueExpansionCtx(ctx) }},
		{"NWHypergraph.SLineGraph", func() { lg = g.SLineGraph(2, true) }},
		{"NWHypergraph.SLineGraphWith", func() {
			for _, o := range []ConstructOptions{PresetHashmap, PresetIntersection, PresetAlgorithm1, PresetAlgorithm2, {UseAdjoin: true}} {
				g.SLineGraphWith(2, true, o)
			}
		}},
		{"NWHypergraph.SLineGraphCtx", func() { g.SLineGraphCtx(ctx, 1, false, ConstructOptions{}) }},
		{"NWHypergraph.SLineGraphEnsemble", func() { g.SLineGraphEnsemble([]int{1, 2, 3}, true) }},
		{"NWHypergraph.SLineGraphEnsembleQueue", func() { g.SLineGraphEnsembleQueue([]int{1, 2}, true) }},
		{"NWHypergraph.SLineGraphWeighted", func() { wl = g.SLineGraphWeighted(2) }},
		{"NWHypergraph.SLineGraphWeightedWith", func() { g.SLineGraphWeightedWith(2, PresetAlgorithm1) }},
		{"NWHypergraph.SLineGraphWeightedCtx", func() { g.SLineGraphWeightedCtx(ctx, 1, ConstructOptions{}) }},
		{"NWHypergraph.SConnectedComponents", func() { g.SConnectedComponents(2) }},
		{"NWHypergraph.SConnectedComponentsCtx", func() {
			// Cold toplex cache: the direct route. Warm: the toplex-only one.
			g.SConnectedComponentsCtx(ctx, 3)
			g.Toplexes()
			g.SConnectedComponentsCtx(ctx, 3)
		}},
		{"NWHypergraph.IncrementalSCC", func() { g.IncrementalSCC(1) }},
		{"IncrementalSCC.Labels", func() {
			labels()         // full
			labels()         // current
			addEdge(0, 1, 2) // insert-only: the next call absorbs
			labels()
		}},
		{"IncrementalSCC.S", func() { view.S() }},
		{"IncrementalSCC.Epoch", func() { view.Epoch() }},
		{"IncrementalSCC.Counts", func() { view.Counts() }},
		{"NWHypergraph.BeginMutation", func() {
			var err error
			if m, err = g.BeginMutation(); err != nil {
				t.Fatal(err)
			}
		}},
		{"Mutation.AddEdge", func() { m.AddEdge([]uint32{7, 8, 9}) }},
		{"Mutation.RemoveEdge", func() { m.RemoveEdge(5) }},
		{"Mutation.NewNodeID", func() { m.NewNodeID() }},
		{"Mutation.Edges", func() { m.Edges() }},
		{"Mutation.Inserts", func() { m.Inserts() }},
		{"Mutation.Deletes", func() { m.Deletes() }},
		{"Mutation.CommitCtx", func() {
			if err := m.CommitCtx(ctx); err != nil {
				t.Fatal(err)
			}
		}},
		{"Mutation.Commit", func() { addEdge(3, 4, 5) }},
		{"NWHypergraph.Mutate", func() { addEdge(10, 11) }},
		{"NWHypergraph.RefreshSLineGraph", func() {
			if _, _, err := g.RefreshSLineGraph(lg, ConstructOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"NWHypergraph.RefreshSLineGraphCtx", func() {
			if _, _, err := g.RefreshSLineGraphCtx(ctx, lg, ConstructOptions{UseAdjoin: true}); err != nil {
				t.Fatal(err)
			}
		}},
		{"NWHypergraph.Save", func() {
			if err := g.Save(filepath.Join(dir, "g.mtx")); err != nil {
				t.Fatal(err)
			}
		}},
		{"NWHypergraph.SaveSnapshot", func() {
			if err := g.SaveSnapshot(filepath.Join(dir, "g.nwhyb")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// The s-line graph handles: every method, unweighted and weighted.
	for _, c := range []call{
		{"Engine", func() { lg.Engine(); wl.Engine() }},
		{"WithEngine", func() { lg.WithEngine(eng); wl.WithEngine(eng) }},
		{"Epoch", func() { lg.Epoch() }},
		{"NumVertices", func() { lg.NumVertices(); wl.NumVertices() }},
		{"NumEdges", func() { lg.NumEdges(); wl.NumEdges() }},
		{"Pairs", func() { lg.Pairs(); wl.Pairs() }},
		{"Eligible", func() { lg.Eligible(0); wl.Eligible(0) }},
		{"SDegree", func() { lg.SDegree(0); wl.SDegree(0) }},
		{"SNeighbors", func() { lg.SNeighbors(0); wl.SNeighbors(0) }},
		{"Strength", func() { wl.Strength(0, 1) }},
		{"SConnectedComponents", func() { lg.SConnectedComponents(); wl.SConnectedComponents() }},
		{"SConnectedComponentsCtx", func() { lg.SConnectedComponentsCtx(ctx) }},
		{"IsSConnected", func() { lg.IsSConnected(); wl.IsSConnected() }},
		{"IsSConnectedCtx", func() { lg.IsSConnectedCtx(ctx) }},
		{"SDistance", func() { lg.SDistance(0, 399); wl.SDistance(0, 399) }},
		{"SDistanceCtx", func() { lg.SDistanceCtx(ctx, 0, 399) }},
		{"SDistanceWeighted", func() { wl.SDistanceWeighted(0, 399) }},
		{"SDistanceWeightedCtx", func() { wl.SDistanceWeightedCtx(ctx, 0, 399) }},
		{"SPath", func() { lg.SPath(0, 399); wl.SPath(0, 399) }},
		{"SPathCtx", func() { lg.SPathCtx(ctx, 0, 399) }},
		{"SPathWeighted", func() { wl.SPathWeighted(0, 399) }},
		{"SPathWeightedCtx", func() { wl.SPathWeightedCtx(ctx, 0, 399) }},
		{"SBetweennessCentrality", func() { lg.SBetweennessCentrality(true); wl.SBetweennessCentrality(true) }},
		{"SBetweennessCentralityCtx", func() { lg.SBetweennessCentralityCtx(ctx, true) }},
		{"SBetweennessCentralityWeighted", func() { wl.SBetweennessCentralityWeighted(true) }},
		{"SBetweennessCentralityWeightedCtx", func() { wl.SBetweennessCentralityWeightedCtx(ctx, true) }},
		{"SClosenessCentrality", func() { lg.SClosenessCentrality(); wl.SClosenessCentrality() }},
		{"SClosenessCentralityCtx", func() { lg.SClosenessCentralityCtx(ctx) }},
		{"SClosenessCentralityOf", func() { lg.SClosenessCentralityOf(0); wl.SClosenessCentralityOf(0) }},
		{"SClosenessCentralityWeighted", func() { wl.SClosenessCentralityWeighted() }},
		{"SClosenessCentralityWeightedCtx", func() { wl.SClosenessCentralityWeightedCtx(ctx) }},
		{"SHarmonicClosenessCentrality", func() { lg.SHarmonicClosenessCentrality(); wl.SHarmonicClosenessCentrality() }},
		{"SHarmonicClosenessCentralityCtx", func() { lg.SHarmonicClosenessCentralityCtx(ctx) }},
		{"SHarmonicClosenessCentralityWeighted", func() { wl.SHarmonicClosenessCentralityWeighted() }},
		{"SHarmonicClosenessCentralityWeightedCtx", func() { wl.SHarmonicClosenessCentralityWeightedCtx(ctx) }},
		{"SEccentricity", func() { lg.SEccentricity(); wl.SEccentricity() }},
		{"SEccentricityCtx", func() { lg.SEccentricityCtx(ctx) }},
		{"SEccentricityOf", func() { lg.SEccentricityOf(0); wl.SEccentricityOf(0) }},
		{"SEccentricityWeighted", func() { wl.SEccentricityWeighted() }},
		{"SEccentricityWeightedCtx", func() { wl.SEccentricityWeightedCtx(ctx) }},
		{"SDiameter", func() { lg.SDiameter(); wl.SDiameter() }},
		{"SDiameterCtx", func() { lg.SDiameterCtx(ctx) }},
		{"SPageRank", func() { lg.SPageRank(0.85, 1e-9, 50); wl.SPageRank(0.85, 1e-9, 50) }},
		{"SPageRankCtx", func() { lg.SPageRankCtx(ctx, 0.85, 1e-9, 50) }},
		{"SCoreness", func() { lg.SCoreness(); wl.SCoreness() }},
		{"SMaximalIndependentSet", func() { lg.SMaximalIndependentSet(1); wl.SMaximalIndependentSet(1) }},
	} {
		c.name = "SLineGraph." + c.name
		calls = append(calls, c)
	}

	listed := map[string]bool{}
	for _, c := range calls {
		listed[c.name] = true
	}
	for _, v := range []any{g, &Mutation{}, view, &SLineGraph{}, &WeightedSLineGraph{}} {
		ty := reflect.TypeOf(v)
		for i := 0; i < ty.NumMethod(); i++ {
			name := ty.Elem().Name() + "." + ty.Method(i).Name
			if ty.Elem().Name() == "WeightedSLineGraph" {
				name = "SLineGraph." + ty.Method(i).Name
			}
			if !listed[name] {
				t.Errorf("%s is not exercised", name)
			}
		}
	}

	def := parallel.Default()
	for _, c := range calls {
		before := def.Submitted()
		c.run()
		if n := def.Submitted() - before; n != 0 {
			t.Errorf("%s: the default pool received %d tasks from a handle bound to a private engine", c.name, n)
		}
	}
}
