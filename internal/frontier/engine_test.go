package frontier_test

import (
	"math/rand"
	"testing"

	"snap/internal/bfs"
	"snap/internal/frontier"
	"snap/internal/generate"
	"snap/internal/graph"
)

// naiveBFS is an independent queue-based oracle (the engine is not
// involved, unlike bfs.Serial which now routes through it).
func naiveBFS(g *graph.Graph, src int32, alive []bool) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = frontier.Unreached
	}
	dist[src] = 0
	queue := []int32{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for a := g.Offsets[v]; a < g.Offsets[v+1]; a++ {
			if alive != nil && !alive[g.EID[a]] {
				continue
			}
			u := g.Adj[a]
			if dist[u] == frontier.Unreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// checkRun verifies distances against the naive oracle, parent
// validity (any valid BFS tree), visitation order, and the level
// windows the engine maintains.
func checkRun(t *testing.T, g *graph.Graph, e *frontier.Engine, src int32, alive []bool) {
	t.Helper()
	want := naiveBFS(g, src, alive)
	reached := 0
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if e.Dist(v) != want[v] {
			t.Fatalf("src %d: Dist(%d) = %d, want %d", src, v, e.Dist(v), want[v])
		}
		if want[v] == frontier.Unreached {
			if e.Visited(v) || e.Parent(v) != -1 {
				t.Fatalf("src %d: unreached %d looks visited", src, v)
			}
			continue
		}
		reached++
		p := e.Parent(v)
		if v == src {
			if p != src {
				t.Fatalf("src %d: Parent(src) = %d", src, p)
			}
			continue
		}
		if p < 0 || !e.Visited(p) || e.Dist(p)+1 != e.Dist(v) {
			t.Fatalf("src %d: invalid parent %d of %d (dists %d, %d)", src, p, v, e.Dist(p), e.Dist(v))
		}
		if !g.HasEdge(p, v) {
			t.Fatalf("src %d: parent arc %d->%d not in graph", src, p, v)
		}
		if alive != nil && !alive[g.EdgeIDOf(p, v)] {
			t.Fatalf("src %d: parent arc %d->%d is dead", src, p, v)
		}
	}
	if e.Reached() != reached {
		t.Fatalf("src %d: Reached = %d, want %d", src, e.Reached(), reached)
	}
	prev := int32(0)
	for _, v := range e.Order() {
		if d := e.Dist(v); d < prev {
			t.Fatalf("src %d: Order not sorted by distance", src)
		} else {
			prev = d
		}
	}
	if e.MaxDist() != prev {
		t.Fatalf("src %d: MaxDist = %d, want %d", src, e.MaxDist(), prev)
	}
	// Level windows partition the order into per-distance runs.
	if e.NumLevels() != int(prev)+1 {
		t.Fatalf("src %d: NumLevels = %d, want %d", src, e.NumLevels(), prev+1)
	}
	total := 0
	for d := int32(0); d < int32(e.NumLevels()); d++ {
		lv := e.Level(d)
		if len(lv) == 0 {
			t.Fatalf("src %d: empty level %d", src, d)
		}
		for _, v := range lv {
			if e.Dist(v) != d {
				t.Fatalf("src %d: vertex %d in level %d has dist %d", src, v, d, e.Dist(v))
			}
		}
		total += len(lv)
	}
	if total != e.Reached() {
		t.Fatalf("src %d: levels cover %d of %d reached", src, total, e.Reached())
	}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for i := 0; i < 99; i++ { // path
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	for i := 100; i < 160; i++ { // ring, plus isolated tail [160, 200)
		j := i + 1
		if j == 160 {
			j = 100
		}
		edges = append(edges, graph.Edge{U: int32(i), V: int32(j)})
	}
	disconnected, err := graph.Build(200, edges, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"rmat":         generate.RMAT(400, 1600, generate.DefaultRMAT(), 11),
		"erdosrenyi":   generate.ErdosRenyi(400, 1200, 12),
		"roadmesh":     generate.RoadMesh(20, 20, 0.05, 13),
		"disconnected": disconnected,
	}
}

// engineConfigs cover serial/parallel, degree-aware, heuristic
// direction optimization, and forced switches at every level.
func engineConfigs() map[string]frontier.Options {
	alwaysUp := func(int32) bool { return true }
	alternate := func(d int32) bool { return d%2 == 1 }
	return map[string]frontier.Options{
		"serial-topdown":    {Workers: 1, MaxDepth: -1},
		"parallel-topdown":  {Workers: 4, MaxDepth: -1},
		"parallel-degaware": {Workers: 4, MaxDepth: -1, DegreeAware: true},
		"do-serial":         {Workers: 1, MaxDepth: -1, Alpha: frontier.DefaultAlpha},
		"do-parallel":       {Workers: 4, MaxDepth: -1, Alpha: frontier.DefaultAlpha},
		"do-aggressive":     {Workers: 4, MaxDepth: -1, Alpha: 1000, Beta: 1000},
		"force-bottomup":    {Workers: 4, MaxDepth: -1, ForceBottomUp: alwaysUp},
		"force-alternate":   {Workers: 1, MaxDepth: -1, ForceBottomUp: alternate},
	}
}

// The tentpole property: every engine configuration produces oracle
// distances and a valid BFS tree on every graph family.
func TestEngineMatchesOracleAcrossFamilies(t *testing.T) {
	for gname, g := range testGraphs(t) {
		for cname, opt := range engineConfigs() {
			t.Run(gname+"/"+cname, func(t *testing.T) {
				rng := rand.New(rand.NewSource(17))
				e := frontier.NewEngine(g.NumVertices())
				for trial := 0; trial < 8; trial++ {
					src := int32(rng.Intn(g.NumVertices()))
					e.RunOptions(g, src, opt)
					checkRun(t, g, e, src, nil)
				}
			})
		}
	}
}

// The serial path must agree with bfs.Serial exactly — distances and
// parents — since downstream kernels pin those semantics.
func TestEngineSerialMatchesBFSSerial(t *testing.T) {
	g := generate.RMAT(300, 1200, generate.DefaultRMAT(), 3)
	e := frontier.NewEngine(g.NumVertices())
	for src := int32(0); src < 40; src++ {
		e.Run(g, src, nil, -1)
		want := bfs.Serial(g, src, nil)
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			if e.Dist(v) != want.Dist[v] || e.Parent(v) != want.Parent[v] {
				t.Fatalf("src %d vertex %d: (%d,%d) want (%d,%d)",
					src, v, e.Dist(v), e.Parent(v), want.Dist[v], want.Parent[v])
			}
		}
	}
}

// One engine reused across 60 runs with rotating configurations must
// never leak state between traversals.
func TestEngineReuseAcrossRuns(t *testing.T) {
	graphs := testGraphs(t)
	names := []string{"rmat", "erdosrenyi", "roadmesh", "disconnected"}
	var opts []frontier.Options
	for _, o := range engineConfigs() {
		opts = append(opts, o)
	}
	rng := rand.New(rand.NewSource(23))
	e := frontier.NewEngine(0)
	for trial := 0; trial < 60; trial++ {
		g := graphs[names[trial%len(names)]]
		e.Resize(g.NumVertices())
		src := int32(rng.Intn(g.NumVertices()))
		e.RunOptions(g, src, opts[trial%len(opts)])
		checkRun(t, g, e, src, nil)
	}
}

// Alive masks must filter both push and pull traversal identically.
func TestEngineAliveMask(t *testing.T) {
	g := generate.ErdosRenyi(200, 800, 31)
	rng := rand.New(rand.NewSource(31))
	alive := make([]bool, g.NumEdges())
	for i := range alive {
		alive[i] = rng.Intn(4) != 0
	}
	e := frontier.NewEngine(g.NumVertices())
	for cname, opt := range engineConfigs() {
		opt.Alive = alive
		for trial := 0; trial < 4; trial++ {
			src := int32(rng.Intn(g.NumVertices()))
			e.RunOptions(g, src, opt)
			t.Run(cname, func(t *testing.T) { checkRun(t, g, e, src, alive) })
		}
	}
}

// MaxDepth truncates the traversal at the requested level in every
// direction mode.
func TestEngineMaxDepth(t *testing.T) {
	g := generate.RoadMesh(12, 12, 0, 37)
	full := naiveBFS(g, 0, nil)
	e := frontier.NewEngine(g.NumVertices())
	for cname, opt := range engineConfigs() {
		for _, maxDepth := range []int32{0, 1, 3, 7} {
			opt.MaxDepth = maxDepth
			e.RunOptions(g, 0, opt)
			for v := int32(0); int(v) < g.NumVertices(); v++ {
				want := full[v]
				if want > maxDepth {
					want = frontier.Unreached
				}
				if e.Dist(v) != want {
					t.Fatalf("%s maxDepth %d: Dist(%d) = %d, want %d", cname, maxDepth, v, e.Dist(v), want)
				}
			}
		}
	}
}

func randomDirected(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	g, err := graph.Build(n, edges, graph.BuildOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Directed graphs: bottom-up needs the reverse CSR; without it the
// engine must silently stay top-down. Both must match the oracle.
func TestEngineDirected(t *testing.T) {
	g := randomDirected(t, 300, 2400, 41)
	rg := graph.Reverse(g)
	e := frontier.NewEngine(g.NumVertices())
	rng := rand.New(rand.NewSource(43))
	cases := map[string]frontier.Options{
		"do-with-reverse":    {Workers: 4, MaxDepth: -1, Alpha: frontier.DefaultAlpha, Reverse: rg},
		"do-without-reverse": {Workers: 4, MaxDepth: -1, Alpha: frontier.DefaultAlpha},
		"forced-bottomup":    {Workers: 4, MaxDepth: -1, Reverse: rg, ForceBottomUp: func(int32) bool { return true }},
	}
	for cname, opt := range cases {
		t.Run(cname, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				src := int32(rng.Intn(g.NumVertices()))
				e.RunOptions(g, src, opt)
				want := naiveBFS(g, src, nil)
				for v := int32(0); int(v) < g.NumVertices(); v++ {
					if e.Dist(v) != want[v] {
						t.Fatalf("src %d: Dist(%d) = %d, want %d", src, v, e.Dist(v), want[v])
					}
				}
			}
		})
	}
}

// sameRun fails unless e's latest run equals the recorded one in
// distances, parents and visitation order.
func sameRun(t *testing.T, what string, e *frontier.Engine, dist, parent, order []int32) {
	t.Helper()
	for v := range dist {
		if d, p := e.Dist(int32(v)), e.Parent(int32(v)); d != dist[v] || p != parent[v] {
			t.Fatalf("%s: vertex %d is (%d,%d), want (%d,%d)", what, v, d, p, dist[v], parent[v])
		}
	}
	got := e.Order()
	if len(got) != len(order) {
		t.Fatalf("%s: reached %d, want %d", what, len(got), len(order))
	}
	for i := range order {
		if got[i] != order[i] {
			t.Fatalf("%s: Order[%d] = %d, want %d", what, i, got[i], order[i])
		}
	}
}

// Every configuration yields the same distances, parents and
// visitation order at any worker count, with and without an alive
// mask.
func TestEngineWorkerInvariant(t *testing.T) {
	for gname, g := range testGraphs(t) {
		rng := rand.New(rand.NewSource(23))
		alive := make([]bool, g.NumEdges())
		for i := range alive {
			alive[i] = rng.Intn(5) != 0
		}
		for cname, opt := range engineConfigs() {
			for _, mask := range [][]bool{nil, alive} {
				opt.Alive = mask
				e := frontier.NewEngine(g.NumVertices())
				for trial := 0; trial < 4; trial++ {
					src := int32(rng.Intn(g.NumVertices()))
					one := opt
					one.Workers = 1
					e.RunOptions(g, src, one)
					n := g.NumVertices()
					dist, parent := make([]int32, n), make([]int32, n)
					for v := range dist {
						dist[v], parent[v] = e.Dist(int32(v)), e.Parent(int32(v))
					}
					order := append([]int32(nil), e.Order()...)
					for _, workers := range []int{2, 3, 7} {
						opt.Workers = workers
						e.RunOptions(g, src, opt)
						what := gname + "/" + cname
						if mask != nil {
							what += "/alive"
						}
						sameRun(t, what, e, dist, parent, order)
					}
				}
			}
		}
	}
}

// Parallel edges are claimed once, by their lowest-position frontier
// endpoint, exactly as the serial loop keeps only the first.
func TestEngineParallelMultigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var edges []graph.Edge
	for i := 0; i < 3000; i++ {
		u, v := int32(rng.Intn(300)), int32(rng.Intn(300))
		edges = append(edges, graph.Edge{U: u, V: v}, graph.Edge{U: u, V: v})
	}
	g, err := graph.Build(300, edges, graph.BuildOptions{AllowMulti: true})
	if err != nil {
		t.Fatal(err)
	}
	e := frontier.NewEngine(g.NumVertices())
	for src := int32(0); src < 20; src++ {
		want := bfs.Serial(g, src, nil)
		e.RunOptions(g, src, frontier.Options{Workers: 4, MaxDepth: -1, DegreeAware: src%2 == 0})
		checkRun(t, g, e, src, nil)
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			if e.Parent(v) != want.Parent[v] {
				t.Fatalf("src %d: Parent(%d) = %d, want %d", src, v, e.Parent(v), want.Parent[v])
			}
		}
	}
}

// Claim words marked by one parallel run are released before the next
// run and across a Resize that shrinks and regrows the engine, so stale
// claims never block or misattribute a later discovery.
func TestEngineClaimsReleasedAcrossRuns(t *testing.T) {
	g := generate.RMAT(400, 1600, generate.DefaultRMAT(), 41)
	small := generate.ErdosRenyi(50, 150, 42)
	e := frontier.NewEngine(g.NumVertices())
	opt := frontier.Options{Workers: 4, MaxDepth: -1}
	for src := int32(0); src < 12; src++ {
		want := bfs.Serial(g, src, nil)
		e.RunOptions(g, src, opt)
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			if e.Dist(v) != want.Dist[v] || e.Parent(v) != want.Parent[v] {
				t.Fatalf("src %d: vertex %d is (%d,%d), want (%d,%d)",
					src, v, e.Dist(v), e.Parent(v), want.Dist[v], want.Parent[v])
			}
		}
		if src%3 == 2 {
			e.Resize(small.NumVertices())
			e.RunOptions(small, src, opt)
			checkRun(t, small, e, src, nil)
			e.Resize(g.NumVertices())
		}
	}
}
