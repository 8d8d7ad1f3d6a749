package orient

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tokendrop/internal/core"
	"tokendrop/internal/graph"
	"tokendrop/internal/local"
)

// shuffledPorts returns a copy of c with every vertex's arcs in a random
// order. Each arc keeps its edge id and Rev is remapped to the new
// positions, so the copy is the same graph under another port numbering.
func shuffledPorts(c *graph.CSR, rng *rand.Rand) *graph.CSR {
	arcs := c.NumArcs()
	perm := make([]int32, arcs) // new position -> old arc
	for v := 0; v < c.N(); v++ {
		lo, hi := c.ArcRange(v)
		for i := lo; i < hi; i++ {
			perm[i] = int32(i)
		}
		rng.Shuffle(hi-lo, func(a, b int) { perm[lo+a], perm[lo+b] = perm[lo+b], perm[lo+a] })
	}
	pos := make([]int32, arcs) // old arc -> new position
	for p, i := range perm {
		pos[i] = int32(p)
	}
	out := &graph.CSR{
		Row: slices.Clone(c.Row),
		Col: make([]int32, arcs),
		EID: make([]int32, arcs),
		Rev: make([]int32, arcs),
	}
	for p, i := range perm {
		out.Col[p] = c.Col[i]
		out.EID[p] = c.EID[i]
		out.Rev[p] = pos[c.Rev[i]]
	}
	return out
}

// referenceEdgeIndex computes buildEdgeIndex's outputs the direct way:
// endpoints from an arc scan, then comparison sorts for the lexicographic
// order and for each vertex's incident edge ids.
func referenceEdgeIndex(c *graph.CSR) (eu, ev, lex, incEID []int32) {
	m := c.M()
	eu = make([]int32, m)
	ev = make([]int32, m)
	for v := 0; v < c.N(); v++ {
		lo, hi := c.ArcRange(v)
		for i := lo; i < hi; i++ {
			if w := c.Col[i]; int32(v) < w {
				eu[c.EID[i]], ev[c.EID[i]] = int32(v), w
			}
		}
	}
	lex = make([]int32, m)
	for id := range lex {
		lex[id] = int32(id)
	}
	sort.Slice(lex, func(i, j int) bool {
		a, b := lex[i], lex[j]
		if eu[a] != eu[b] {
			return eu[a] < eu[b]
		}
		return ev[a] < ev[b]
	})
	incEID = slices.Clone(c.EID)
	for v := 0; v < c.N(); v++ {
		lo, hi := c.ArcRange(v)
		ids := incEID[lo:hi]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	return eu, ev, lex, incEID
}

// TestEdgeIndexMatchesSortReference pins the counting-pass lexicographic
// order and the per-vertex incident-id order against comparison-sort
// references, on the differential families, a power-law graph, and a
// 2000-leaf star hub — each also under shuffled ports, where the indexes
// must come out the same.
func TestEdgeIndexMatchesSortReference(t *testing.T) {
	type tcase struct {
		name string
		csr  *graph.CSR
	}
	var cases []tcase
	for i := 0; i < 105; i++ {
		g, name := diffGraph(i)
		cases = append(cases, tcase{fmt.Sprintf("case %d (%s)", i, name), graph.NewCSRFromGraph(g)})
	}
	rng := rand.New(rand.NewSource(17))
	cases = append(cases,
		tcase{"powerlaw", graph.CSRPowerLaw(3000, 2.1, 200, rng)},
		tcase{"star 2000", graph.NewCSRFromGraph(graph.Star(2000))},
		tcase{"regular csr-native", graph.CSRRandomRegular(500, 6, rng)},
	)
	sess := local.NewSession(3)
	defer sess.Close()
	for _, tc := range cases {
		wantEu, wantEv, wantLex, wantInc := referenceEdgeIndex(tc.csr)
		for _, variant := range []struct {
			name string
			csr  *graph.CSR
		}{{"as built", tc.csr}, {"shuffled ports", shuffledPorts(tc.csr, rng)}} {
			if err := variant.csr.Validate(); err != nil {
				t.Fatalf("%s %s: %v", tc.name, variant.name, err)
			}
			scratch := make([]int32, variant.csr.N())
			for v := range scratch {
				scratch[v] = -7 // buildEdgeIndex must not rely on zeroed scratch
			}
			eu, ev, lex, inc := buildEdgeIndex(variant.csr, sess, scratch)
			if !slices.Equal(eu, wantEu) || !slices.Equal(ev, wantEv) {
				t.Fatalf("%s %s: endpoints differ from the reference", tc.name, variant.name)
			}
			if !slices.Equal(lex, wantLex) {
				t.Fatalf("%s %s: lex order differs from the sort reference", tc.name, variant.name)
			}
			if !slices.Equal(inc, wantInc) {
				t.Fatalf("%s %s: incident-id order differs from the sort reference", tc.name, variant.name)
			}
		}
	}
}

// TestSolveShardedPortOrderIndependence shuffles every vertex's arc order
// and requires the very same run — heads, loads, phase log and rounds —
// on 1 and 3 shards under both tie rules: nothing in the set-up may
// assume the input's adjacency is ordered the way CSRBuilder orders it.
func TestSolveShardedPortOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct {
		name string
		csr  *graph.CSR
	}{
		{"regular", graph.CSRRandomRegular(300, 4, rng)},
		{"powerlaw", graph.CSRPowerLaw(400, 2.2, 30, rng)},
		{"star", graph.NewCSRFromGraph(graph.Star(60))},
		{"grid", graph.NewCSRFromGraph(graph.Grid2D(9, 11))},
	} {
		shuffled := shuffledPorts(tc.csr, rng)
		if slices.Equal(shuffled.Col, tc.csr.Col) {
			t.Fatalf("%s: shuffle left every port in place", tc.name)
		}
		for _, tie := range []core.TieBreak{core.TieFirstPort, core.TieRandom} {
			base, err := SolveSharded(tc.csr, ShardedOptions{Tie: tie, Seed: 9, Shards: 1, CheckInvariants: true})
			if err != nil {
				t.Fatalf("%s tie=%v: %v", tc.name, tie, err)
			}
			for _, shards := range []int{1, 3} {
				res, err := SolveSharded(shuffled, ShardedOptions{Tie: tie, Seed: 9, Shards: shards, CheckInvariants: true})
				if err != nil {
					t.Fatalf("%s tie=%v shuffled shards=%d: %v", tc.name, tie, shards, err)
				}
				if res.Rounds != base.Rounds || res.Phases != base.Phases ||
					!slices.Equal(res.PhaseLog, base.PhaseLog) ||
					!slices.Equal(res.Head, base.Head) || !slices.Equal(res.Load, base.Load) {
					t.Fatalf("%s tie=%v: shuffled ports on %d shards diverge from the unshuffled run", tc.name, tie, shards)
				}
			}
		}
	}
}
