package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tokendrop"
	"tokendrop/internal/core"
)

// inputSeed derives the generator seed of input k of a run: input 0 is
// the run's own seed, the others are splitmix64 mixes of it, so every
// run takes turns over the same number of inputs whatever its seed.
func inputSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	z := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// codec writes an input as bytes and reads it back.
type codec[T any] struct {
	enc func(T) []byte
	dec func([]byte) (T, error)
}

// inputFiles are a run's inputs, kept encoded in the build directory.
type inputFiles[T any] struct {
	paths []string
	dec   func([]byte) (T, error)
}

// load reads input i back into memory.
func (f inputFiles[T]) load(i int) (T, error) {
	raw, err := os.ReadFile(f.paths[i])
	if err != nil {
		var zero T
		return zero, err
	}
	return f.dec(raw)
}

func (f inputFiles[T]) remove() {
	for _, p := range f.paths {
		_ = os.Remove(p)
	}
}

// buildInputs generates k inputs with gen, twice over: every call is one
// set-up sample (setup_s is their median) and, in a traced run, a
// graph.build span under a setup root. The second build of each input
// must encode to the same bytes as the first, or the run fails.
//
// The inputs are written, encoded, to the build directory, and an op
// loads the one it solves just before it runs. The process then holds
// what a user's process solving that input would, so its peak RSS is
// the program's footprint and not the benchmark's input cache.
//
// A generator runs on one thread, which loses only the steal of the CPU
// it runs on. So the builds are charged the least steal any one CPU saw
// during them, spread evenly over the builds because one 10 ms tick is
// coarser than a build; no sample is cut below 0.
func buildInputs[T any](r *run, k int, gen func(seed int64) T, c codec[T]) (inputFiles[T], error) {
	files := inputFiles[T]{dec: c.dec}
	dir := filepath.Join(r.out, "inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return files, err
	}
	sums := make([][sha256.Size]byte, k)
	var secs []float64
	var stolen stealMark
	for pass := 0; pass < 2; pass++ {
		for i := range sums {
			root := r.tr.root("setup")
			sp := r.tr.begin(root, "graph.build", "graph")
			steal, start := markSteal(), time.Now()
			in := gen(inputSeed(r.seed, i))
			secs = append(secs, time.Since(start).Seconds())
			for cpu, t := range stealSince(steal) {
				if cpu == len(stolen) {
					stolen = append(stolen, 0)
				}
				stolen[cpu] += t
			}
			r.tr.end(sp)
			r.tr.end(root)
			raw := c.enc(in)
			sum := sha256.Sum256(raw)
			if pass == 1 {
				if sum != sums[i] {
					r.fail("input %d: a second generation from the same seed differs", i)
				}
				continue
			}
			sums[i] = sum
			p := filepath.Join(dir, fmt.Sprintf("%s-%d.bin", r.workload, i))
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				return files, err
			}
			files.paths = append(files.paths, p)
		}
	}
	perBuild := leastStolen(stolen).Seconds() / float64(len(secs))
	for i := range secs {
		secs[i] = max(secs[i]-perBuild, 0)
	}
	r.e2e["setup_s"] = median(secs)
	r.layer["graph.build_ms"] = 1000 * median(secs)
	return files, nil
}

// The codecs below write int32 arrays as a little-endian length and
// values, and read them back.

var errShortInput = errors.New("input file ends early")

func appendInt32s(b []byte, xs []int32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(xs)))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

// int32s reads what appendInt32s wrote at the front of b and returns
// the rest of b.
func int32s(b []byte) ([]int32, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errShortInput
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < 4*n {
		return nil, nil, errShortInput
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs, b[4*n:], nil
}

func appendCSR(b []byte, g *tokendrop.FlatGraph) []byte {
	for _, xs := range [][]int32{g.Row, g.Col, g.EID, g.Rev} {
		b = appendInt32s(b, xs)
	}
	return b
}

func readCSR(b []byte) (*tokendrop.FlatGraph, []byte, error) {
	var arrays [4][]int32
	for i := range arrays {
		var err error
		if arrays[i], b, err = int32s(b); err != nil {
			return nil, nil, err
		}
	}
	return &tokendrop.FlatGraph{Row: arrays[0], Col: arrays[1], EID: arrays[2], Rev: arrays[3]}, b, nil
}

func csrSize(g *tokendrop.FlatGraph) int { return 16 + 4*(len(g.Row)+3*len(g.Col)) }

var csrCodec = codec[*tokendrop.FlatGraph]{
	enc: func(g *tokendrop.FlatGraph) []byte { return appendCSR(make([]byte, 0, csrSize(g)), g) },
	dec: func(b []byte) (*tokendrop.FlatGraph, error) {
		g, _, err := readCSR(b)
		return g, err
	},
}

var bipartiteCodec = codec[*tokendrop.FlatBipartite]{
	enc: func(fb *tokendrop.FlatBipartite) []byte {
		b := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+csrSize(fb.C)), uint32(fb.NumLeft))
		return appendCSR(b, fb.C)
	},
	dec: func(b []byte) (*tokendrop.FlatBipartite, error) {
		if len(b) < 4 {
			return nil, errShortInput
		}
		g, _, err := readCSR(b[4:])
		if err != nil {
			return nil, err
		}
		return &tokendrop.FlatBipartite{C: g, NumLeft: int(binary.LittleEndian.Uint32(b))}, nil
	},
}

var gameCodec = codec[*tokendrop.FlatGame]{
	enc: func(fi *tokendrop.FlatGame) []byte {
		n := fi.N()
		level := make([]int32, n)
		token := make([]byte, n)
		for v := range level {
			level[v] = int32(fi.Level(v))
			if fi.Token(v) {
				token[v] = 1
			}
		}
		b := appendCSR(make([]byte, 0, csrSize(fi.CSR())+8*n), fi.CSR())
		return append(appendInt32s(b, level), token...)
	},
	dec: func(b []byte) (*tokendrop.FlatGame, error) {
		g, b, err := readCSR(b)
		if err != nil {
			return nil, err
		}
		level, b, err := int32s(b)
		if err != nil {
			return nil, err
		}
		if len(b) != len(level) {
			return nil, errShortInput
		}
		token := make([]bool, len(b))
		for v, t := range b {
			token[v] = t == 1
		}
		return core.NewFlatInstanceCSR(g, level, token)
	},
}
