package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The tracer keeps spans in memory and writes them out when the run
// ends. Every span has a name, the module it is attributed to, a start
// and end on the wall clock, a parent (-1 for a root) and a run id — the
// id of its root span, so the spans of one op share it.
//
// Roots are the benchmark's own: "op" (one measured operation), "setup"
// (input generation and boots) and "probe" (standalone calls made only
// to derive a per-layer number). A span's self time is its duration
// minus the part of that interval its children cover; children that run
// concurrently (two worker processes) are merged before subtracting.
type tracer struct {
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Module string `json:"module"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const benchModule = "bench"

func newTracer() *tracer { return &tracer{} }

var (
	clockWall = time.Now().UnixNano()
	clockMono = time.Now()
)

// now is the span clock: wall-aligned nanoseconds that advance with the
// monotonic clock, comparable across the benchmark's processes.
func now() int64 { return clockWall + int64(time.Since(clockMono)) }

// root opens a root span of the given kind ("op", "setup" or "probe").
func (t *tracer) root(kind string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Run: id, Name: kind, Module: benchModule, Start: now()})
	return id
}

// begin opens a child span of parent.
func (t *tracer) begin(parent int, name, module string) int {
	if t == nil {
		return -1
	}
	return t.add(parent, name, module, now(), 0)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = now()
}

// add records a finished (or, with end 0, open) child span of parent.
func (t *tracer) add(parent int, name, module string, start, end int64) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.spans[parent].Run,
		Name: name, Module: module, Start: start, End: end})
	return id
}

// selfTimes returns every span's self time in nanoseconds.
func (t *tracer) selfTimes() []int64 {
	kids := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(t.spans[k].Start, s.Start), min(t.spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.End - s.Start - covered(iv)
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// summarize adds <module>.self_ms (self time of the module's spans under
// op roots, per op) and trace.unattributed_pct (the share of op wall time
// no module span covers) to layer. Set-up and probe spans stay in the
// written trace; their layers report them as their own metrics.
func (t *tracer) summarize(layer map[string]float64) {
	self := t.selfTimes()
	perModule := map[string]int64{}
	var ops int
	var opWall, opSelf int64
	for i, s := range t.spans {
		if t.spans[s.Run].Name != "op" {
			continue
		}
		if s.Parent < 0 {
			ops++
			opWall += s.End - s.Start
			opSelf += self[i]
			continue
		}
		perModule[s.Module] += self[i]
	}
	if ops == 0 {
		return
	}
	for _, m := range modules {
		layer[m+".self_ms"] = float64(perModule[m]) / 1e6 / float64(ops)
	}
	if opWall > 0 {
		layer["trace.unattributed_pct"] = 100 * float64(opSelf) / float64(opWall)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
