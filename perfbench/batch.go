package main

import (
	"fmt"
	"math/rand"

	"tokendrop"
	"tokendrop/internal/assign"
	"tokendrop/internal/orient"
)

// Batch workloads: one op is one sharded solve of a seeded input,
// checked independently of the solver's own accounting.

const (
	batchShards = 2 // one shard per vCPU of the reference host
	orientN     = 200_000
	orientDeg   = 4
	orientK     = 8
	assignNL    = 150_000
	assignNR    = 50_000
	assignAlpha = 2
	assignMaxD  = 16
	assignK     = 16
)

// phaseTimer turns phase-boundary snapshot callbacks into phase spans
// under a solve span: phase i runs from boundary i-1 (or the call) to
// boundary i, and the tail from the last boundary to the return.
type phaseTimer struct {
	tr     *tracer
	solve  int
	module string
	last   int64
	phases []float64 // ms per phase
}

func newPhaseTimer(tr *tracer, root int, module string) *phaseTimer {
	p := &phaseTimer{tr: tr, module: module}
	p.solve = tr.begin(root, module+".solve", module)
	p.last = now()
	return p
}

// boundary is the OnSnapshot hook body.
func (p *phaseTimer) boundary() {
	t := now()
	p.tr.add(p.solve, p.module+".phase", p.module, p.last, t)
	p.phases = append(p.phases, float64(t-p.last)/1e6)
	p.last = t
}

// finish records the tail and closes the solve span, returning the tail
// in ms.
func (p *phaseTimer) finish() float64 {
	t := now()
	p.tr.add(p.solve, p.module+".result", p.module, p.last, t)
	p.tr.end(p.solve)
	return float64(t-p.last) / 1e6
}

// phaseStats accumulates the traced per-phase numbers of a batch layer.
type phaseStats struct {
	phase1, later, tail, phases, rounds, alloc []float64
}

func (s *phaseStats) add(p *phaseTimer, tail float64, phases, rounds int64, allocMB float64) {
	if len(p.phases) > 0 {
		s.phase1 = append(s.phase1, p.phases[0])
		s.later = append(s.later, p.phases[1:]...)
	}
	s.tail = append(s.tail, tail)
	s.phases = append(s.phases, float64(phases))
	s.rounds = append(s.rounds, float64(rounds))
	s.alloc = append(s.alloc, allocMB)
}

func (s *phaseStats) report(layer map[string]float64, module string, plain []sample, oneShard []float64) {
	layer[module+".phase1_ms"] = median(s.phase1)
	layer[module+".phase_ms.p50"] = median(s.later)
	layer[module+".tail_ms"] = median(s.tail)
	layer[module+".phases"] = mean(s.phases)
	layer[module+".rounds"] = mean(s.rounds)
	layer[module+".alloc_mb_per_op"] = mean(s.alloc)
	if two := median(field(plain, sample.ownMs)); two > 0 {
		layer[module+".speedup_2v1"] = median(oneShard) / two
	}
}

// batchLayer describes one phase-loop layer to runBatch.
type batchLayer[In, Res any] struct {
	module string
	k      int // inputs per run; see NOTES.md for the seed→rounds table
	gen    func(seed int64) In
	codec  codec[In]
	// solve runs one sharded solve; a non-nil boundary must be called
	// at every phase boundary.
	solve func(in In, shards int, boundary func()) (Res, error)
	check func(in In, res Res) error
	// counts are the exact counts that must repeat per input, phases
	// and rounds first.
	counts func(res Res) []int64
}

// runBatch builds the layer's inputs, measures its solves, and in a
// traced run adds the phase metrics and a 1-shard solve of every input.
func runBatch[In, Res any](r *run, l batchLayer[In, Res]) error {
	inputs, err := buildInputs(r, l.k, l.gen, l.codec)
	defer inputs.remove()
	if err != nil {
		return err
	}
	book := r.countBook()
	var ps phaseStats
	solve := func(in In, tr *tracer, shards int) (Res, sample, *phaseTimer, float64, error) {
		var pt *phaseTimer
		var boundary func()
		if tr != nil {
			boundary = func() { pt.boundary() }
		}
		var res Res
		var tail float64
		s, err := timed(func() (err error) {
			root := tr.root("op")
			if tr != nil {
				pt = newPhaseTimer(tr, root, l.module)
			}
			res, err = l.solve(in, shards, boundary)
			if pt != nil {
				tail = pt.finish()
			}
			tr.end(root)
			return err
		})
		return res, s, pt, tail, err
	}
	plain, traced := r.measure(l.k, func(in int, tr *tracer) (sample, bool) {
		g, err := inputs.load(in)
		if err != nil {
			r.fail("%s input %d: %v", l.module, in, err)
			return sample{}, false
		}
		res, s, pt, tail, err := solve(g, tr, batchShards)
		var counts []int64
		if err == nil {
			err = l.check(g, res)
		}
		if err == nil {
			counts = l.counts(res)
			err = book.check(in, counts...)
		}
		if err != nil {
			r.fail("%s input %d: %v", l.module, in, err)
			return s, false
		}
		if pt != nil {
			ps.add(pt, tail, counts[0], counts[1], s.allocMB)
		}
		return s, true
	})
	r.reportOps(plain, traced)
	if r.trace {
		oneShard := make([]float64, l.k)
		for in := range oneShard {
			g, err := inputs.load(in)
			if err != nil {
				return err
			}
			_, s, _, _, err := solve(g, nil, 1)
			if err != nil {
				return fmt.Errorf("1-shard %s solve of input %d: %w", l.module, in, err)
			}
			oneShard[in] = s.ownMs()
		}
		ps.report(r.layer, l.module, plain, oneShard)
	}
	return book.save()
}

func orientRegular(r *run) error {
	var snap orient.Snapshot
	return runBatch(r, batchLayer[*tokendrop.FlatGraph, *tokendrop.OrientShardedResult]{
		module: "orient",
		k:      orientK,
		gen: func(seed int64) *tokendrop.FlatGraph {
			return tokendrop.RandomRegularFlat(orientN, orientDeg, rand.New(rand.NewSource(seed)))
		},
		codec: csrCodec,
		solve: func(g *tokendrop.FlatGraph, shards int, boundary func()) (*tokendrop.OrientShardedResult, error) {
			opt := tokendrop.OrientShardedOptions{Tie: tokendrop.TieFirstPort, Shards: shards}
			if boundary != nil {
				opt.SnapshotEvery, opt.SnapshotInto = 1, &snap
				opt.OnSnapshot = func(*orient.Snapshot) error { boundary(); return nil }
			}
			return tokendrop.StableOrientationSharded(g, opt)
		},
		check: checkOrientation,
		counts: func(res *tokendrop.OrientShardedResult) []int64 {
			return []int64{int64(res.Phases), int64(res.Rounds), maxLoad(res.Load)}
		},
	})
}

// checkOrientation verifies a sharded orientation: the solver's own
// Stable and MaxBadness, plus an independent pass that checks every
// edge's head is one of its endpoints, recounts indegrees against Load,
// and re-checks stability from the recount.
func checkOrientation(g *tokendrop.FlatGraph, res *tokendrop.OrientShardedResult) error {
	if !res.Stable() {
		return fmt.Errorf("orientation not stable")
	}
	if b := res.MaxBadness(); b > 1 {
		return fmt.Errorf("max badness %d", b)
	}
	if len(res.Head) != g.M() || len(res.Load) != g.N() {
		return fmt.Errorf("result shape %d heads/%d loads for m=%d n=%d", len(res.Head), len(res.Load), g.M(), g.N())
	}
	indeg := make([]int32, g.N())
	seen := 0
	for v := 0; v < g.N(); v++ {
		lo, hi := g.ArcRange(v)
		for i := lo; i < hi; i++ {
			u := g.Col[i]
			if int(u) < v {
				continue
			}
			h := res.Head[g.EID[i]]
			if h != int32(v) && h != u {
				return fmt.Errorf("edge %d={%d,%d} has head %d", g.EID[i], v, u, h)
			}
			indeg[h]++
			seen++
		}
	}
	if seen != g.M() {
		return fmt.Errorf("saw %d edges, want %d", seen, g.M())
	}
	for v, d := range indeg {
		if d != res.Load[v] {
			return fmt.Errorf("vertex %d: indegree %d, Load %d", v, d, res.Load[v])
		}
	}
	for v := 0; v < g.N(); v++ {
		lo, hi := g.ArcRange(v)
		for i := lo; i < hi; i++ {
			if h := res.Head[g.EID[i]]; h == int32(v) && indeg[v]-indeg[g.Col[i]] > 1 {
				return fmt.Errorf("edge %d unhappy: head load %d, tail load %d", g.EID[i], indeg[v], indeg[g.Col[i]])
			}
		}
	}
	return nil
}

func assignPowerlaw(r *run) error {
	var snap assign.Snapshot
	return runBatch(r, batchLayer[*tokendrop.FlatBipartite, *tokendrop.AssignShardedResult]{
		module: "assign",
		k:      assignK,
		gen: func(seed int64) *tokendrop.FlatBipartite {
			return tokendrop.PowerLawBipartiteFlat(assignNL, assignNR, assignAlpha, assignMaxD, rand.New(rand.NewSource(seed)))
		},
		codec: bipartiteCodec,
		solve: func(fb *tokendrop.FlatBipartite, shards int, boundary func()) (*tokendrop.AssignShardedResult, error) {
			opt := tokendrop.AssignShardedOptions{Tie: tokendrop.TieFirstPort, Shards: shards}
			if boundary != nil {
				opt.SnapshotEvery, opt.SnapshotInto = 1, &snap
				opt.OnSnapshot = func(*assign.Snapshot) error { boundary(); return nil }
			}
			return tokendrop.StableAssignmentSharded(fb, opt)
		},
		check: checkAssignment,
		counts: func(res *tokendrop.AssignShardedResult) []int64 {
			return []int64{int64(res.Phases), int64(res.Rounds), res.Messages, maxLoad(res.Load)}
		},
	})
}

// checkAssignment verifies a sharded assignment: the solver's own
// Stable, plus an independent pass that checks every customer sits on
// an adjacent server, recounts loads against Load, and re-checks that no
// customer could lower its load by switching.
func checkAssignment(fb *tokendrop.FlatBipartite, res *tokendrop.AssignShardedResult) error {
	if !res.Stable() {
		return fmt.Errorf("assignment not stable")
	}
	nl, ns := fb.NumCustomers(), fb.NumServers()
	if len(res.ServerOf) != nl || len(res.Load) != ns {
		return fmt.Errorf("result shape %d/%d for %d customers, %d servers", len(res.ServerOf), len(res.Load), nl, ns)
	}
	load := make([]int32, ns)
	g := fb.C
	for c := 0; c < nl; c++ {
		s := res.ServerOf[c]
		lo, hi := g.ArcRange(c)
		adjacent := false
		for i := lo; i < hi; i++ {
			if g.Col[i]-int32(nl) == s {
				adjacent = true
				break
			}
		}
		if !adjacent {
			return fmt.Errorf("customer %d on non-adjacent server %d", c, s)
		}
		load[s]++
	}
	for s, l := range load {
		if l != res.Load[s] {
			return fmt.Errorf("server %d: recount %d, Load %d", s, l, res.Load[s])
		}
	}
	for c := 0; c < nl; c++ {
		s := res.ServerOf[c]
		lo, hi := g.ArcRange(c)
		for i := lo; i < hi; i++ {
			if t := g.Col[i] - int32(nl); load[s]-load[t] > 1 {
				return fmt.Errorf("customer %d could move from load %d to %d", c, load[s], load[t])
			}
		}
	}
	return nil
}

func maxLoad(load []int32) int64 {
	var m int32
	for _, l := range load {
		m = max(m, l)
	}
	return int64(m)
}
