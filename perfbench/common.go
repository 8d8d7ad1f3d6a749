package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// sample is what one op cost. stolenMs is the time steal cost the op
// (see stolenSince); op times leave it out, so that a burst of steal
// from other tenants of the host does not read as the program slowing
// down.
type sample struct {
	wallMs, stolenMs float64
	cpuMs, rssMB     float64
	allocMB          float64
}

func (s sample) ownMs() float64 { return s.wallMs - s.stolenMs }

// timed runs one op, measuring its wall time, the time steal cost it,
// the CPU time of this process, its resident high-water mark and the
// bytes it allocated.
func timed(f func() error) (sample, error) {
	// Collect and hand free pages back to the OS first, so the high-water
	// mark starts from the live heap (the harness and the one input the
	// op solves; see buildInputs) and reads what this op brings in, not
	// what earlier ops left mapped.
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, steal := cpuTime(), markSteal()
	start := time.Now()
	err := f()
	wall := time.Since(start)
	cpu, stolen := cpuTime()-cpu0, stolenSince(steal)
	runtime.ReadMemStats(&m1)
	return sample{
		wallMs:   ms(wall),
		stolenMs: ms(stolen),
		cpuMs:    ms(cpu),
		rssMB:    peakRSSMB("self"),
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
	}, err
}

// measure runs op over the k inputs in turn, whole cycles only, until
// the run's seconds are spent: op i uses input i mod k, and the loop ends
// at the first cycle boundary past the deadline. One warm-up op on input
// 0 comes first; it is checked but not timed. A traced run alternates
// untraced and traced cycles, so the two medians give the tracing
// overhead under the same host conditions. op returns false when the op
// failed (it has already been counted); measure returns the untraced and
// traced samples of the ops that succeeded.
func (r *run) measure(k int, op func(in int, tr *tracer) (sample, bool)) (plain, traced []sample) {
	r.attempted++
	op(0, nil)
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for cycle := 0; ; cycle++ {
		tr := r.cycleTracer(cycle)
		for in := 0; in < k; in++ {
			r.attempted++
			s, ok := op(in, tr)
			switch {
			case !ok:
			case tr == nil:
				plain = append(plain, s)
			default:
				traced = append(traced, s)
			}
		}
		if time.Now().After(deadline) && (!r.trace || tr != nil) {
			return plain, traced
		}
	}
}

// cycleTracer returns the tracer for a cycle of ops: none in an untraced
// run, and every other cycle in a traced one.
func (r *run) cycleTracer(cycle int) *tracer {
	if cycle%2 == 1 {
		return r.tr
	}
	return nil
}

// reportOps fills the end-to-end op metrics from the untraced samples
// and, in a traced run, the op tail, the raw wall time, the time steal
// cost and the tracing overhead.
func (r *run) reportOps(plain, traced []sample) {
	own := field(plain, sample.ownMs)
	r.e2e["op_p50_ms"] = median(own)
	r.e2e["cpu_ms_per_op"] = mean(field(plain, func(s sample) float64 { return s.cpuMs }))
	r.e2e["peak_rss_mb"] = median(field(plain, func(s sample) float64 { return s.rssMB }))
	all := append(append([]sample(nil), plain...), traced...)
	r.layer["op.samples"] = float64(len(all))
	r.layer["op.p99_ms"] = percentile(field(all, sample.ownMs), 99)
	r.layer["op.wall_p50_ms"] = median(field(all, func(s sample) float64 { return s.wallMs }))
	r.layer["op.stolen_ms"] = mean(field(all, func(s sample) float64 { return s.stolenMs }))
	fmt.Printf("ops: n=%d p50_ms=%.3f wall_p50_ms=%.3f stolen_ms=%.3f\n",
		len(all), median(own), r.layer["op.wall_p50_ms"], r.layer["op.stolen_ms"])
	if len(traced) > 0 && median(own) > 0 {
		r.layer["trace.overhead_pct"] = 100 * (median(field(traced, sample.ownMs))/median(own) - 1)
	}
}

// field maps f over xs.
func field[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// countBook checks that the exact counts of each input (rounds, phases,
// messages, max load, wire bytes) repeat bit for bit: across the ops of
// a run, and across runs of one seed on the same sources, through a
// record kept in the build directory.
type countBook struct {
	path   string
	digest string
	want   map[int][]int64
	dirty  bool
}

type countFile struct {
	Digest string          `json:"digest"`
	Counts map[int][]int64 `json:"counts"`
}

func (r *run) countBook() *countBook {
	b := &countBook{
		path:   filepath.Join(r.out, "counts", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed)),
		digest: r.host.srcDigest,
		want:   map[int][]int64{},
	}
	if raw, err := os.ReadFile(b.path); err == nil {
		var f countFile
		if json.Unmarshal(raw, &f) == nil && f.Digest == b.digest && f.Counts != nil {
			b.want = f.Counts
		}
	}
	return b
}

// check compares one op's counts with the first ones seen for its input.
func (b *countBook) check(in int, got ...int64) error {
	want, ok := b.want[in]
	if !ok {
		b.want[in] = got
		b.dirty = true
		return nil
	}
	if len(want) != len(got) {
		return fmt.Errorf("input %d: %d counts, recorded %d", in, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("input %d: counts %v, recorded %v", in, got, want)
		}
	}
	return nil
}

// save writes the record when this run added to it.
func (b *countBook) save() error {
	if !b.dirty {
		return nil
	}
	raw, err := json.Marshal(countFile{Digest: b.digest, Counts: b.want})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(b.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(b.path, raw, 0o644)
}
