package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"tokendrop"
	"tokendrop/internal/local"
)

// The test binary doubles as the mp worker, like the benchmark binary.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

func TestSelfTimeMergesConcurrentChildren(t *testing.T) {
	tr := newTracer()
	root := tr.root("op")
	tr.spans[root].Start, tr.spans[root].End = 0, 100
	solve := tr.add(root, "mp.solve", "mp", 0, 100)
	tr.add(solve, "core.worker.compute", "core", 10, 50) // worker 0
	tr.add(solve, "core.worker.compute", "core", 30, 70) // worker 1, overlapping
	tr.add(solve, "mp.worker.write", "mp", 80, 90)
	self := tr.selfTimes()
	if want := []int64{0, 30, 40, 40, 10}; !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

// selfByModule runs ops mp solves of gi with the given worker environment
// and returns the per-op module self times, the median op wall time, and
// the number of pipe writes per op.
func selfByModule(t *testing.T, gi gameInput, env []string, ops int) (map[string]float64, float64, float64) {
	t.Helper()
	runner, err := newMPRunner(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner.env = env
	tr := newTracer()
	var walls []float64
	for i := 0; i < ops; i++ {
		s, res, st, _, err := runner.op(gi, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkGame(gi, res, st); err != nil {
			t.Fatal(err)
		}
		walls = append(walls, s.wallMs)
	}
	layer := map[string]float64{}
	tr.summarize(layer)
	writes := 0
	for _, s := range tr.spans {
		if s.Name == "mp.worker.write" {
			writes++
		}
	}
	return layer, median(walls), float64(writes) / float64(ops)
}

// smallGame is a game small enough that a stall of a few tens of
// milliseconds dominates its mp solve.
func smallGame(t *testing.T) gameInput {
	t.Helper()
	fi := tokendrop.RandomLayeredFlatGame(tokendrop.LayeredConfig{Levels: 4, Width: 300, ParentDeg: 3, TokenProb: 0.6}, rand.New(rand.NewSource(3)))
	ref, err := tokendrop.SolveGameSharded(fi, tokendrop.ShardedGameOptions{Tie: tokendrop.TieFirstPort, Shards: gameProcs})
	if err != nil {
		t.Fatal(err)
	}
	frames, bytes, err := local.MPWireCost(fi.CSR(), gameProcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return gameInput{fi: fi, ref: ref, frames: frames, bytesPerRound: bytes}
}

// checkChargedToMP compares per-op module self times and op wall times
// with and without a worker stall: mp.self_ms must grow by at least 80%
// of injected (the stall summed over both workers), the op by at least
// 80% of wall, and every other module by no more than 15% of injected
// either way.
func checkChargedToMP(t *testing.T, base, slow map[string]float64, baseWall, slowWall, injected, wall float64) {
	t.Helper()
	if got := slow["mp.self_ms"] - base["mp.self_ms"]; got < 0.8*injected {
		t.Errorf("mp.self_ms grew by %.1fms, want at least 80%% of the %.1fms injected", got, injected)
	}
	if got := slowWall - baseWall; got < 0.8*wall {
		t.Errorf("op wall time grew by %.1fms, want at least 80%% of %.1fms", got, wall)
	}
	for _, m := range modules {
		if m == "mp" {
			continue
		}
		if d := slow[m+".self_ms"] - base[m+".self_ms"]; d > 0.15*injected || d < -0.15*injected {
			t.Errorf("%s.self_ms moved by %.1fms; the stall belongs to mp alone", m, d)
		}
	}
	if u := slow["trace.unattributed_pct"]; u > 5 {
		t.Errorf("%.1f%% of the op is unattributed", u)
	}
}

// A stall injected into the workers' pipe writer must show up in the mp
// module's self time and in the op's wall time, and in no other module.
func TestWorkerWriteDelayIsChargedToMP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	gi := smallGame(t)
	const delay = 25 * time.Millisecond
	const ops = 3
	base, baseWall, _ := selfByModule(t, gi, nil, ops)
	slow, slowWall, writes := selfByModule(t, gi, []string{writeDelayEnv + "=" + delay.String()}, ops)
	injected := writes * ms(delay) // summed over both workers
	t.Logf("rounds=%d writes/op=%.0f injected=%.1fms base=%v slow=%v wall %.1f→%.1fms",
		gi.ref.Stats.Rounds, writes, injected, base, slow, baseWall, slowWall)
	checkChargedToMP(t, base, slow, baseWall, slowWall, injected, float64(gi.ref.Stats.Rounds)*ms(delay))
}

// A stall in the workers' set-up, between reading the instance and
// sending the first round frame, is instance shipping: it must show up
// in mp, not in the engine's compute.
func TestWorkerSetupDelayIsChargedToMP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	gi := smallGame(t)
	const delay = 50 * time.Millisecond
	const ops = 3
	base, baseWall, _ := selfByModule(t, gi, nil, ops)
	slow, slowWall, _ := selfByModule(t, gi, []string{setupDelayEnv + "=" + delay.String()}, ops)
	t.Logf("base=%v slow=%v wall %.1f→%.1fms", base, slow, baseWall, slowWall)
	checkChargedToMP(t, base, slow, baseWall, slowWall, gameProcs*ms(delay), ms(delay))
}

// BENCHMARK.json must name exactly the workloads and metrics the harness
// reports, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, harness has %s", got, want)
	}
	for _, c := range []struct {
		list []struct{ Name, Unit string }
		defs []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.list) != len(c.defs) {
			t.Errorf("%d metrics listed, harness reports %d", len(c.list), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.list[i].Name != d.name || c.list[i].Unit != d.unit {
				t.Errorf("metric %d is %s (%s), harness reports %s (%s)", i, c.list[i].Name, c.list[i].Unit, d.name, d.unit)
			}
		}
	}
}

// Every input codec must read back exactly what it wrote.
func TestInputCodecsRoundTrip(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(7)) }
	roundTrip(t, "csr", csrCodec, tokendrop.RandomRegularFlat(500, 4, rng()))
	roundTrip(t, "bipartite", bipartiteCodec, tokendrop.PowerLawBipartiteFlat(300, 100, 2, 8, rng()))
	roundTrip(t, "game", gameCodec, tokendrop.RandomLayeredFlatGame(tokendrop.LayeredConfig{Levels: 4, Width: 200, ParentDeg: 3, TokenProb: 0.6}, rng()))
}

func roundTrip[T any](t *testing.T, name string, c codec[T], in T) {
	t.Helper()
	raw := c.enc(in)
	out, err := c.dec(raw)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if again := c.enc(out); !slices.Equal(raw, again) {
		t.Errorf("%s: decoding and re-encoding changed %d bytes into %d", name, len(raw), len(again))
	}
	if _, err := c.dec(raw[:len(raw)-1]); err == nil {
		t.Errorf("%s: a truncated input decoded without error", name)
	}
}
