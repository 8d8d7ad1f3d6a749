package orient

import (
	"math/rand"
	"sync"
	"testing"

	"tokendrop/internal/graph"
)

// Orientation engine benchmarks at the scales the load-balancing
// evaluations run at (10⁵–10⁶ vertices). Both engines execute the same
// deterministic phase algorithm (TieFirstPort) on the same random
// d-regular graph — the pointer graph is materialized from the very CSR
// the sharded engine consumes, so the runs are bit-identical — and solve
// the orientation to stability. The rounds/s metric counts adaptive
// communication rounds of the whole run per wall-clock second; CHANGES.md
// records measured numbers. Run with
//
//	go test ./internal/orient -bench Orient -benchtime 1x
const benchOrientDeg = 4

var (
	benchMu   sync.Mutex
	benchCSRs = map[int]*graph.CSR{}
	benchGs   = map[int]*graph.Graph{}
)

func benchGraph(n int) (*graph.CSR, *graph.Graph) {
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchCSRs[n] == nil {
		rng := rand.New(rand.NewSource(42))
		benchCSRs[n] = graph.CSRRandomRegular(n, benchOrientDeg, rng)
		benchGs[n] = benchCSRs[n].ToGraph()
	}
	return benchCSRs[n], benchGs[n]
}

func benchSharded(b *testing.B, n, shards int) {
	csr, _ := benchGraph(n)
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveSharded(csr, ShardedOptions{Shards: shards})
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

func benchSeed(b *testing.B, n int) {
	_, g := benchGraph(n)
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Solve(g, Options{})
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

func BenchmarkOrientSharded100k(b *testing.B) { benchSharded(b, 100_000, 0) }
func BenchmarkOrientSeed100k(b *testing.B)    { benchSeed(b, 100_000) }
func BenchmarkOrientSharded1M(b *testing.B)   { benchSharded(b, 1_000_000, 0) }
func BenchmarkOrientSeed1M(b *testing.B)      { benchSeed(b, 1_000_000) }

// BenchmarkOrientSharded200k is the perfbench orient-regular solve shape
// (n = 2·10⁵, d = 4, 2 shards), so its profile can be taken without the
// harness:
//
//	go test ./internal/orient -run '^$' -bench OrientSharded200k -benchtime 10x -cpuprofile cpu.out
func BenchmarkOrientSharded200k(b *testing.B) { benchSharded(b, 200_000, 2) }

// Multi-shard scaling of the 10⁶-vertex run; the outcome is shard-count
// independent, only the wall clock changes (flat on a single hardware
// thread, faster with real cores).
func BenchmarkOrientShardScaling(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "shards1", 2: "shards2", 4: "shards4", 8: "shards8"}[shards],
			func(b *testing.B) { benchSharded(b, 1_000_000, shards) })
	}
}
