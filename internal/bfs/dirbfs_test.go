package bfs

import (
	"testing"

	"snap/internal/generate"
)

func TestDirectionOptimizingMatchesSerial(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		g := generate.RMAT(2000, 16000, generate.DefaultRMAT(), int64(trial))
		want := Serial(g, 1, nil)
		var one Result
		for _, workers := range []int{1, 4} {
			got := DirectionOptimizing(g, 1, Options{Workers: workers})
			for v := range want.Dist {
				if got.Dist[v] != want.Dist[v] {
					t.Fatalf("trial %d workers %d: dist[%d] = %d, want %d",
						trial, workers, v, got.Dist[v], want.Dist[v])
				}
			}
			// Bottom-up levels pick parents in adjacency order, so the
			// tree differs from Serial's; it must not depend on workers.
			if workers == 1 {
				one = got
				continue
			}
			for v := range one.Parent {
				if got.Parent[v] != one.Parent[v] {
					t.Fatalf("trial %d workers %d: parent[%d] = %d, want %d (workers 1)",
						trial, workers, v, got.Parent[v], one.Parent[v])
				}
			}
		}
	}
}

func TestDirectionOptimizingParentsValid(t *testing.T) {
	g := generate.RMAT(3000, 24000, generate.DefaultRMAT(), 3)
	r := DirectionOptimizing(g, 0, Options{Workers: 3})
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if r.Dist[v] == Unreached || v == 0 {
			continue
		}
		p := r.Parent[v]
		if p < 0 || r.Dist[v] != r.Dist[p]+1 || !g.HasEdge(p, v) {
			t.Fatalf("invalid parent for %d: p=%d", v, p)
		}
	}
}

func TestDirectionOptimizingOnPath(t *testing.T) {
	// A path never triggers bottom-up (frontier stays tiny); make sure
	// the top-down path is still exact.
	g := pathGraph(t, 64)
	r := DirectionOptimizing(g, 0, Options{})
	for v := int32(0); v < 64; v++ {
		if r.Dist[v] != v {
			t.Fatalf("dist[%d] = %d", v, r.Dist[v])
		}
	}
}

func BenchmarkBFSDirectionOptimizing(b *testing.B) {
	g := generate.RMAT(1<<15, 1<<17, generate.DefaultRMAT(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DirectionOptimizing(g, 0, Options{})
	}
}
