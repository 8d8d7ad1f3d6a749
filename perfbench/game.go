package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"tokendrop"
	"tokendrop/internal/local"
	"tokendrop/internal/mp"
)

// game-mp: one op is one multi-process solve — spawn, instance shipping
// and the per-round exchange — checked bit for bit against the
// in-process sharded engine on the same game.

const (
	gameProcs = 2
	gameK     = 4
)

var gameCfg = tokendrop.LayeredConfig{Levels: 5, Width: 25_000, ParentDeg: 4, TokenProb: 0.6}

// gameInput is one seeded game with its in-process reference solution
// and its deterministic per-round wire cost. Between ops the game itself
// stays in its input file (see buildInputs) and fi is nil.
type gameInput struct {
	fi            *tokendrop.FlatGame
	ref           *tokendrop.FlatGameResult
	frames        int
	bytesPerRound int64
}

// workerStat is what one worker process's span log says about one op.
type workerStat struct {
	spawnMs, setupMs, waitMs, busyMs float64
}

func gameMP(r *run) error {
	games, err := buildInputs(r, gameK, func(seed int64) *tokendrop.FlatGame {
		return tokendrop.RandomLayeredFlatGame(gameCfg, rand.New(rand.NewSource(seed)))
	}, gameCodec)
	defer games.remove()
	if err != nil {
		return err
	}
	inputs := make([]gameInput, gameK)
	var coreMs, coreAlloc, encMs, decMs []float64
	for i := range inputs {
		fi, err := games.load(i)
		if err != nil {
			return err
		}
		var ref *tokendrop.FlatGameResult
		root := r.tr.root("probe")
		sp := r.tr.begin(root, "core.solve", "core")
		s, err := timed(func() (err error) {
			ref, err = tokendrop.SolveGameSharded(fi, tokendrop.ShardedGameOptions{Tie: tokendrop.TieFirstPort, Shards: gameProcs})
			return err
		})
		r.tr.end(sp)
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("in-process reference solve of input %d: %w", i, err)
		}
		frames, perRound, err := local.MPWireCost(fi.CSR(), gameProcs, 1)
		if err != nil {
			return err
		}
		inputs[i] = gameInput{ref: ref, frames: frames, bytesPerRound: perRound}
		coreMs = append(coreMs, s.ownMs())
		coreAlloc = append(coreAlloc, s.allocMB)
		if r.trace {
			start := time.Now()
			payload := mp.EncodeInstance(fi)
			encMs = append(encMs, ms(time.Since(start)))
			start = time.Now()
			if _, err := mp.DecodeInstance(payload); err != nil {
				return fmt.Errorf("decoding input %d: %w", i, err)
			}
			decMs = append(decMs, ms(time.Since(start)))
		}
	}
	runner, err := newMPRunner(filepath.Join(r.out, "spans"))
	if err != nil {
		return err
	}
	book := r.countBook()
	var workers []workerStat
	var wire, framesPer, restarts []float64

	plain, traced := r.measure(gameK, func(in int, tr *tracer) (sample, bool) {
		gi := inputs[in]
		var err error
		if gi.fi, err = games.load(in); err != nil {
			r.fail("game input %d: %v", in, err)
			return sample{}, false
		}
		s, res, st, ws, err := runner.op(gi, tr)
		if err == nil {
			err = checkGame(gi, res, st)
		}
		if err == nil {
			err = book.check(in, int64(res.Stats.Rounds), res.Stats.Messages, int64(len(res.Moves)), st.WireBytes)
		}
		if err != nil {
			r.fail("game input %d: %v", in, err)
			return s, false
		}
		if tr != nil {
			workers = append(workers, ws...)
			wire = append(wire, float64(st.WireBytes)/float64(st.Rounds))
			framesPer = append(framesPer, float64(st.WireFrames)/float64(st.Rounds))
			restarts = append(restarts, float64(st.Restarts))
		}
		return s, true
	})
	r.reportOps(plain, traced)
	if r.trace {
		l := r.layer
		l["core.solve_ms"] = median(coreMs)
		l["core.alloc_mb_per_op"] = mean(coreAlloc)
		var rounds, msgs, moves []float64
		for _, gi := range inputs {
			rounds = append(rounds, float64(gi.ref.Stats.Rounds))
			msgs = append(msgs, float64(gi.ref.Stats.Messages))
			moves = append(moves, float64(len(gi.ref.Moves)))
		}
		l["core.rounds"], l["core.messages"], l["core.moves"] = mean(rounds), mean(msgs), mean(moves)
		l["mp.encode_ms"], l["mp.decode_ms"] = median(encMs), median(decMs)
		l["mp.spawn_ms"] = mean(field(workers, func(w workerStat) float64 { return w.spawnMs }))
		l["mp.worker.setup_ms"] = mean(field(workers, func(w workerStat) float64 { return w.setupMs }))
		l["mp.worker.wait_ms"] = mean(field(workers, func(w workerStat) float64 { return w.waitMs }))
		l["mp.worker.busy_ms"] = mean(field(workers, func(w workerStat) float64 { return w.busyMs }))
		l["mp.wire_bytes_per_round"] = mean(wire)
		l["mp.frames_per_round"] = mean(framesPer)
		l["mp.restarts"] = mean(restarts)
		l["mp.overhead_ms"] = r.e2e["op_p50_ms"] - median(coreMs)
	}
	return book.save()
}

// mpRunner runs multi-process solves whose workers are re-executions of
// this binary.
type mpRunner struct {
	self    string
	spanDir string
	env     []string // extra worker environment
	ops     int
}

func newMPRunner(spanDir string) (*mpRunner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	return &mpRunner{self: self, spanDir: spanDir}, nil
}

// op runs one mp.Solve of gi. The sample adds the workers' CPU time and
// peak RSS to the coordinator's. With a tracer, the op is a root span
// holding the mp.solve span, under which the workers' logs become spawn,
// compute and pipe-write spans.
func (m *mpRunner) op(gi gameInput, tr *tracer) (sample, *tokendrop.FlatGameResult, mp.RunStats, []workerStat, error) {
	m.ops++
	var cmds []*exec.Cmd
	var spawned []int64
	var spanFiles []string
	opt := mp.Options{
		Procs: gameProcs, Tie: tokendrop.TieFirstPort,
		Command: func(p int) *exec.Cmd {
			cmd := exec.Command(m.self)
			cmd.Env = append(append(os.Environ(), workerEnv+"=1"), m.env...)
			if tr != nil {
				f := filepath.Join(m.spanDir, fmt.Sprintf("op%d-w%d-a%d.bin", m.ops, p, len(cmds)))
				cmd.Env = append(cmd.Env, spanFileEnv+"="+f)
				spanFiles = append(spanFiles, f)
			}
			cmds = append(cmds, cmd)
			spawned = append(spawned, now())
			return cmd
		},
	}
	var res *tokendrop.FlatGameResult
	var st mp.RunStats
	var solveSpan int
	s, err := timed(func() (err error) {
		root := tr.root("op")
		solveSpan = tr.begin(root, "mp.solve", "mp")
		res, st, err = mp.Solve(gi.fi, opt)
		tr.end(solveSpan)
		tr.end(root)
		return err
	})
	// The workers have been waited for: add their CPU and peak RSS.
	for _, c := range cmds {
		if c.ProcessState == nil {
			continue
		}
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.cpuMs += ms(tv(ru.Utime) + tv(ru.Stime))
			s.rssMB += float64(ru.Maxrss) / 1024
		}
	}
	var ws []workerStat
	for p, f := range spanFiles {
		w, werr := importWorkerSpans(tr, solveSpan, f, spawned[p])
		if werr != nil && err == nil {
			err = werr
		}
		ws = append(ws, w)
	}
	return s, res, st, ws, err
}

// checkGame requires the multi-process result to match the in-process
// engine bit for bit, the wire to carry exactly the planned bytes and
// frames per round, and no worker restarts.
func checkGame(gi gameInput, res *tokendrop.FlatGameResult, st mp.RunStats) error {
	ref := gi.ref
	if st.Restarts != 0 {
		return fmt.Errorf("%d worker restarts", st.Restarts)
	}
	if res.Stats.Rounds != ref.Stats.Rounds || st.Rounds != ref.Stats.Rounds {
		return fmt.Errorf("rounds %d (coordinator %d), in-process %d", res.Stats.Rounds, st.Rounds, ref.Stats.Rounds)
	}
	if res.Stats.Messages != ref.Stats.Messages {
		return fmt.Errorf("messages %d, in-process %d", res.Stats.Messages, ref.Stats.Messages)
	}
	if len(res.Final) != len(ref.Final) || len(res.Moves) != len(ref.Moves) {
		return fmt.Errorf("result shape differs from in-process")
	}
	for v := range res.Final {
		if res.Final[v] != ref.Final[v] {
			return fmt.Errorf("final placement differs at vertex %d", v)
		}
	}
	for i := range res.Moves {
		if res.Moves[i] != ref.Moves[i] {
			return fmt.Errorf("move %d is %+v, in-process %+v", i, res.Moves[i], ref.Moves[i])
		}
	}
	if want := gi.bytesPerRound * int64(st.Rounds); st.WireBytes != want {
		return fmt.Errorf("wire bytes %d, planned %d", st.WireBytes, want)
	}
	if want := int64(gi.frames) * int64(st.Rounds); st.WireFrames != want {
		return fmt.Errorf("wire frames %d, planned %d", st.WireFrames, want)
	}
	return nil
}

// Worker mode. The benchmark binary re-executes itself as an mp worker
// (the Command hook sets workerEnv). In a traced run the worker's pipes
// are wrapped so every read and write is logged, with its start and end
// on the span clock, to the file named by spanFileEnv: time blocked in a
// read is waiting for the coordinator and time in a write is the pipe.
// What lies between is the worker computing. Before its first round
// frame (its second write; the first is its hello) that is setting up:
// parsing the handshake, hashing and decoding the instance, checking
// the shard map, then the engine's own set-up and first round step.
// After it, it is engine steps and framing.

const (
	workerEnv   = "PERFBENCH_MP_WORKER"
	spanFileEnv = "PERFBENCH_SPAN_FILE"
	// writeDelayEnv stalls every pipe write by the given duration, and
	// setupDelayEnv the worker's set-up, just before its first round
	// frame; the attribution test uses them to check where each stall is
	// charged.
	writeDelayEnv = "PERFBENCH_WRITE_DELAY"
	setupDelayEnv = "PERFBENCH_SETUP_DELAY"
)

const (
	recStart byte = iota
	recReadBegin
	recReadEnd
	recWriteBegin
	recWriteEnd
)

// spanLog appends fixed-size records (kind, span-clock ns) straight to a
// file, one write each, so a worker killed right after its last frame
// still leaves a complete log up to that frame.
type spanLog struct{ f *os.File }

func (l spanLog) mark(kind byte) {
	var b [9]byte
	b[0] = kind
	binary.LittleEndian.PutUint64(b[1:], uint64(now()))
	_, _ = l.f.Write(b[:])
}

type timedReader struct {
	f   *os.File
	log spanLog
}

func (t timedReader) Read(p []byte) (int, error) {
	t.log.mark(recReadBegin)
	n, err := t.f.Read(p)
	t.log.mark(recReadEnd)
	return n, err
}

type timedWriter struct {
	f          *os.File
	log        spanLog
	delay      time.Duration
	setupDelay time.Duration
	writes     int
}

func (t *timedWriter) Write(p []byte) (int, error) {
	if t.writes++; t.writes == 2 && t.setupDelay > 0 {
		time.Sleep(t.setupDelay)
	}
	t.log.mark(recWriteBegin)
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	n, err := t.f.Write(p)
	t.log.mark(recWriteEnd)
	return n, err
}

func workerMain() int {
	var err error
	if path := os.Getenv(spanFileEnv); path != "" {
		f, ferr := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", ferr)
			return 1
		}
		defer f.Close()
		w := &timedWriter{f: os.Stdout, log: spanLog{f}}
		w.delay, _ = time.ParseDuration(os.Getenv(writeDelayEnv))
		w.setupDelay, _ = time.ParseDuration(os.Getenv(setupDelayEnv))
		w.log.mark(recStart)
		err = mp.WorkerMain(timedReader{os.Stdin, w.log}, w)
	} else {
		err = mp.WorkerMain(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// importWorkerSpans reads one worker's log, adds its spawn, set-up
// (module mp), compute (module core) and pipe-write (module mp) spans
// under the solve span, deletes the log, and returns the worker's
// totals.
func importWorkerSpans(tr *tracer, parent int, path string, spawned int64) (workerStat, error) {
	var ws workerStat
	raw, err := os.ReadFile(path)
	if err != nil {
		return ws, fmt.Errorf("worker span log: %w", err)
	}
	_ = os.Remove(path)
	if len(raw) < 9 || raw[0] != recStart {
		return ws, fmt.Errorf("worker span log %s: no start record", path)
	}
	at := func(i int) (byte, int64) { return raw[i], int64(binary.LittleEndian.Uint64(raw[i+1:])) }
	_, start := at(0)
	tr.add(parent, "mp.spawn", "mp", spawned, start)
	ws.spawnMs = float64(start-spawned) / 1e6
	cur := start
	var opened int64
	writes := 0
	for i := 9; i+9 <= len(raw); i += 9 {
		kind, t := at(i)
		switch kind {
		case recReadBegin, recWriteBegin:
			switch {
			case t <= cur:
			case writes < 2:
				tr.add(parent, "mp.worker.setup", "mp", cur, t)
				ws.setupMs += float64(t-cur) / 1e6
			default:
				tr.add(parent, "core.worker.compute", "core", cur, t)
				ws.busyMs += float64(t-cur) / 1e6
			}
			if kind == recWriteBegin {
				writes++
			}
			opened = t
		case recReadEnd:
			ws.waitMs += float64(t-opened) / 1e6
			cur = t
		case recWriteEnd:
			tr.add(parent, "mp.worker.write", "mp", opened, t)
			cur = t
		}
	}
	return ws, nil
}
