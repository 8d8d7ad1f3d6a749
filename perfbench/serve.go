package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tokendrop"
)

// serve-churn: td-serve over HTTP, driven by a closed loop on one
// keep-alive connection. Every delta is mirrored into an in-process
// Resolver built from the same seeded network, so each answer is checked
// against the mirror and the stream only ever sends deltas the daemon
// must accept.

const (
	serveCustomers = 100_000
	serveServers   = 33_333
	serveCdeg      = 3
	serveShards    = 2
	serveBoots     = 3    // setup_s is the median boot
	statsEvery     = 1000 // deltas between /stats reads
	// rssAfter is the stream prefix after which peak_rss_mb is read: the
	// daemon's footprint grows with churn, so a fixed prefix keeps a
	// faster host from reading as a fatter daemon.
	rssAfter = 40_000
)

// daemonProc is one running td-serve.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	stdout chan struct{} // closed when the stdout drain ends
}

// bootDaemon starts td-serve and returns once /readyz answers 200,
// with the time from exec to that answer, less the time steal cost it.
// Most of a boot is the single-threaded network generator, so the boot
// is charged leastStolen.
func bootDaemon(r *run, client *http.Client) (*daemonProc, time.Duration, error) {
	cmd := exec.Command(filepath.Join(r.out, "td-serve"),
		"-listen", "127.0.0.1:0",
		"-customers", strconv.Itoa(serveCustomers), "-servers", strconv.Itoa(serveServers),
		"-cdeg", strconv.Itoa(serveCdeg), "-seed", strconv.FormatInt(r.seed, 10),
		"-shards", strconv.Itoa(serveShards))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	steal, start := markSteal(), time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting td-serve: %w", err)
	}
	d := &daemonProc{cmd: cmd, stdout: make(chan struct{})}
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		if rest, ok := strings.CutPrefix(lines.Text(), "td-serve: listening on "); ok {
			addr, _, _ := strings.Cut(rest, " ")
			d.base = "http://" + addr
			break
		}
	}
	go func() {
		defer close(d.stdout)
		_, _ = io.Copy(io.Discard, out)
	}()
	if d.base == "" {
		d.stop()
		return nil, 0, fmt.Errorf("td-serve printed no listen address")
	}
	for {
		if resp, err := client.Get(d.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start) - leastStolen(stealSince(steal)), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("td-serve not ready after 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 10s) and waits for
// it and its stdout drain to end.
func (d *daemonProc) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("td-serve ignored SIGTERM: %v", <-done)
	}
	<-d.stdout
	// td-serve answers /readyz a moment before it installs its SIGTERM
	// handler, so a daemon stopped right after its boot can die of the
	// signal instead of draining. Either way it has stopped.
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return err
}

// churnGen draws the delta stream td-serve's own churn client sends
// (cmd/td-serve/churn.go): arrivals on three distinct live servers and
// departures through a window of the last churnWindow arrivals, oldest
// first, and every drainEvery-th step a drain of a live server followed
// by a server addition, about 2% of the deltas each. Unlike that client,
// it drains only servers none of whose customers would lose their last
// port, checked on the mirror, so no delta can be refused.
type churnGen struct {
	rng     *rand.Rand
	mirror  *tokendrop.Resolver
	servs   idSet
	window  []int // the stream's live arrivals, oldest first
	step    int
	pending bool // an add-server is due after the drain just sent
}

const (
	churnWindow = 256
	drainEvery  = 49
)

// idSet is a set of live ids with O(1) insert, delete and uniform draw.
type idSet struct {
	ids []int
	pos map[int]int
}

func newIDSet(n int) idSet {
	s := idSet{ids: make([]int, n), pos: make(map[int]int, n)}
	for i := range s.ids {
		s.ids[i], s.pos[i] = i, i
	}
	return s
}

func (s *idSet) add(id int) { s.pos[id] = len(s.ids); s.ids = append(s.ids, id) }

func (s *idSet) del(id int) {
	i := s.pos[id]
	last := s.ids[len(s.ids)-1]
	s.ids[i], s.pos[last] = last, i
	s.ids = s.ids[:len(s.ids)-1]
	delete(s.pos, id)
}

func (s *idSet) draw(rng *rand.Rand) int { return s.ids[rng.Intn(len(s.ids))] }

// delta is one request of the stream.
type delta struct {
	kind    string // assign, release, add-server, drain
	servers []int32
	id      int
}

func (g *churnGen) next() delta {
	if g.pending {
		g.pending = false
		return delta{kind: "add-server"}
	}
	i := g.step
	g.step++
	if i%drainEvery == drainEvery-1 {
		if s, ok := g.drainCandidate(); ok {
			g.pending = true
			return delta{kind: "drain", id: s}
		}
	}
	if len(g.window) >= churnWindow {
		c := g.window[0]
		g.window = g.window[:copy(g.window, g.window[1:])]
		return delta{kind: "release", id: c}
	}
	var servers []int32
	for len(servers) < serveCdeg {
		s := int32(g.servs.draw(g.rng))
		dup := false
		for _, t := range servers {
			dup = dup || t == s
		}
		if !dup {
			servers = append(servers, s)
		}
	}
	return delta{kind: "assign", servers: servers}
}

// drainCandidate draws live servers until one can be drained; after
// drainTries undrainable draws the step becomes an ordinary one.
func (g *churnGen) drainCandidate() (int, bool) {
	const drainTries = 64
	for try := 0; try < drainTries; try++ {
		if s := g.servs.draw(g.rng); g.drainable(s) {
			return s, true
		}
	}
	return 0, false
}

func (g *churnGen) drainable(s int) bool {
	ov := g.mirror.Overlay()
	for _, c := range ov.Incident(s) {
		if len(ov.Adj(int(c))) < 2 {
			return false
		}
	}
	return true
}

// body renders the request body without reflection.
func (d delta) body() []byte {
	switch d.kind {
	case "assign":
		b := []byte(`{"servers":[`)
		for i, s := range d.servers {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		return append(b, "]}"...)
	case "release":
		return append(strconv.AppendInt([]byte(`{"customer":`), int64(d.id), 10), '}')
	case "drain":
		return append(strconv.AppendInt([]byte(`{"server":`), int64(d.id), 10), '}')
	}
	return []byte(`{}`)
}

// apply replays d on the mirror and checks the daemon's answer against
// it, keeping the generator's live sets in step.
func (g *churnGen) apply(d delta, answer map[string]json.RawMessage) error {
	num := func(key string) (int, error) {
		v, ok := answer[key]
		if !ok {
			return 0, fmt.Errorf("%s answer lacks %q", d.kind, key)
		}
		return strconv.Atoi(string(v))
	}
	okAnswer := func() error {
		if string(answer["ok"]) != "true" {
			return fmt.Errorf("%s answer not ok", d.kind)
		}
		return nil
	}
	switch d.kind {
	case "assign":
		c, err := g.mirror.AddCustomer(d.servers)
		if err != nil {
			return fmt.Errorf("mirror refused assign: %w", err)
		}
		g.window = append(g.window, c)
		gotC, err := num("customer")
		if err != nil {
			return err
		}
		gotS, err := num("server")
		if err != nil {
			return err
		}
		if gotC != c || gotS != g.mirror.ServerOf(c) {
			return fmt.Errorf("assign answered customer %d on %d, mirror %d on %d", gotC, gotS, c, g.mirror.ServerOf(c))
		}
	case "release":
		if err := g.mirror.RemoveCustomer(d.id); err != nil {
			return fmt.Errorf("mirror refused release: %w", err)
		}
		return okAnswer()
	case "add-server":
		s, err := g.mirror.AddServer()
		if err != nil {
			return fmt.Errorf("mirror refused add-server: %w", err)
		}
		g.servs.add(s)
		got, err := num("server")
		if err != nil {
			return err
		}
		if got != s {
			return fmt.Errorf("add-server answered %d, mirror %d", got, s)
		}
	case "drain":
		if err := g.mirror.DrainServer(d.id); err != nil {
			return fmt.Errorf("mirror refused drain: %w", err)
		}
		g.servs.del(d.id)
		return okAnswer()
	}
	return nil
}

// serveStats is the part of /stats the mirror must match.
type serveStats struct {
	Deltas     int   `json:"deltas"`
	Moves      int   `json:"moves"`
	FullSolves int   `json:"full_solves"`
	Rollbacks  int   `json:"rollbacks"`
	Customers  int   `json:"customers"`
	Servers    int   `json:"servers"`
	Edges      int   `json:"edges"`
	Shed       int64 `json:"shed"`
	Timeouts   int64 `json:"timeouts"`
}

func (g *churnGen) matchStats(st serveStats) error {
	m := g.mirror.Stats()
	if st.Deltas != m.Deltas || st.Moves != m.Moves || st.FullSolves != m.FullSolves ||
		st.Customers != m.Customers || st.Servers != m.Servers || st.Edges != m.Edges {
		return fmt.Errorf("/stats %+v, mirror %+v", st, m)
	}
	return nil
}

func serveChurn(r *run) error {
	client := &http.Client{Transport: &http.Transport{
		Proxy: nil, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	// The mirror: the daemon's seeded network and initial solve, rebuilt
	// in-process exactly as td-serve builds them.
	root := r.tr.root("setup")
	sp := r.tr.begin(root, "graph.bipartite_gen", "graph")
	start := time.Now()
	rng := rand.New(rand.NewSource(r.seed))
	b, err := tokendrop.NewBipartite(tokendrop.RandomBipartite(serveCustomers, serveServers, serveCdeg, rng), serveCustomers)
	if err != nil {
		return err
	}
	fb := tokendrop.NewFlatBipartite(b)
	r.layer["graph.bipartite_gen_ms"] = ms(time.Since(start))
	r.tr.end(sp)
	sp = r.tr.begin(root, "resolver.boot", "resolver")
	start = time.Now()
	mirror, err := tokendrop.NewResolver(fb, nil, tokendrop.ResolverOptions{
		Tie: tokendrop.TieFirstPort, Seed: r.seed, Shards: serveShards, Fault: tokendrop.NewFaultRegistry(r.seed),
	})
	if err != nil {
		return err
	}
	defer mirror.Close()
	r.layer["resolver.boot_ms"] = ms(time.Since(start))
	r.tr.end(sp)
	r.tr.end(root)
	b, fb = nil, nil

	var boots []float64
	var d *daemonProc
	for i := 0; i < serveBoots; i++ {
		root := r.tr.root("setup")
		sp := r.tr.begin(root, "td-serve.boot", "td-serve")
		dp, took, err := bootDaemon(r, client)
		r.tr.end(sp)
		r.tr.end(root)
		if err != nil {
			return err
		}
		boots = append(boots, took.Seconds())
		if i < serveBoots-1 {
			if err := dp.stop(); err != nil {
				return fmt.Errorf("stopping boot %d: %w", i, err)
			}
			continue
		}
		d = dp
	}
	r.e2e["setup_s"] = median(boots)
	err = churnLoop(r, client, d, mirror)
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("td-serve shutdown: %w", serr)
	}
	return err
}

// churnLoop drives the daemon for the run's seconds and checks every
// answer, the /stats counts and the mirror's final state.
func churnLoop(r *run, client *http.Client, d *daemonProc, mirror *tokendrop.Resolver) error {
	g := &churnGen{
		rng: rand.New(rand.NewSource(r.seed ^ 0x5eed)), mirror: mirror, servs: newIDSet(serveServers),
	}
	book := r.countBook()
	pid := d.cmd.Process.Pid
	// The client and the daemon each get a CPU of their own for the
	// loop, as two machines would give them. Left to the scheduler, they
	// sometimes share one and sometimes not, and a run's op median moved
	// with that placement (a spread of 0.13 over five seeds, 0.08 pinned).
	daemonCPUIndex := 0
	if runtime.NumCPU() >= 2 {
		daemonCPUIndex = 1
		if err := pinProcess(pid, daemonCPUIndex); err != nil {
			return err
		}
		if err := pinProcess(os.Getpid(), 0); err != nil {
			return err
		}
	}
	var resolverUs, statsUs []float64
	var plain, traced []sample
	var deltas int
	var refused int
	var daemonCPU, clientCPU, mirrorTime [2]time.Duration
	var modeDeltas [2]int // deltas in untraced (0) and traced (1) blocks
	var blocks []cpuBlock // untraced blocks
	var rss float64

	// request does one round trip; a non-nil ct sees the request's
	// progress.
	request := func(method, path string, body []byte, into any, ct *httptrace.ClientTrace) (int, error) {
		req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		if ct != nil {
			req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return resp.StatusCode, err
		}
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
		}
		return resp.StatusCode, json.Unmarshal(raw, into)
	}
	readStats := func() (serveStats, error) {
		var st serveStats
		r.attempted++
		start := time.Now()
		_, err := request(http.MethodGet, "/stats", nil, &st, nil)
		statsUs = append(statsUs, us(time.Since(start)))
		if err == nil {
			err = g.matchStats(st)
		}
		if err != nil {
			r.fail("stats after %d deltas: %v", deltas, err)
		}
		return st, err
	}

	// Blocks of statsEvery deltas, each ended by a /stats read; a traced
	// run alternates untraced and traced blocks.
	var st serveStats
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for block := 0; ; block++ {
		tr := r.cycleTracer(block)
		mode := block % 2
		if !r.trace {
			mode = 0
		}
		cpu0, dcpu0, steal := cpuTime(), procCPU(pid), markSteal()
		var batch []sample
		for i := 0; i < statsEvery; i++ {
			dl := g.next()
			body := dl.body()
			answer := map[string]json.RawMessage{}
			r.attempted++
			// A traced op splits at the moments the request was written
			// and the first answer byte came back: the client before and
			// after, td-serve (daemon and loopback) in between.
			var ct *httptrace.ClientTrace
			var wrote, first int64
			if tr != nil {
				ct = &httptrace.ClientTrace{
					WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = now() },
					GotFirstResponseByte: func() { first = now() },
				}
			}
			root := tr.root("op")
			start := time.Now()
			code, err := request(http.MethodPost, "/"+dl.kind, body, &answer, ct)
			tr.end(root)
			took := time.Since(start)
			if err != nil {
				if code == http.StatusConflict {
					refused++
				}
				// The daemon and the mirror may now disagree: stop the
				// stream and report the run as failed.
				r.fail("%s after %d deltas: %v", dl.kind, deltas, err)
				return nil
			}
			mstart := time.Now()
			err = g.apply(dl, answer)
			mtook := time.Since(mstart)
			mirrorTime[mode] += mtook
			if err != nil {
				r.fail("%s after %d deltas: %v", dl.kind, deltas, err)
				return nil
			}
			deltas++
			modeDeltas[mode]++
			batch = append(batch, sample{wallMs: ms(took)})
			if tr != nil {
				resolverUs = append(resolverUs, us(mtook))
				rs := tr.spans[root]
				tr.add(root, "client.send", "client", rs.Start, wrote)
				httpSpan := tr.add(root, "td-serve.http", "td-serve", wrote, first)
				tr.add(httpSpan, "resolver.delta", "resolver", max(wrote, first-int64(mtook)), first)
				tr.add(root, "client.receive", "client", first, rs.End)
			}
			if deltas == rssAfter {
				rss = peakRSSMB(strconv.Itoa(pid))
			}
			if deltas == 2000 {
				if err := book.check(0, int64(mirror.Stats().Moves)); err != nil {
					r.fail("%v", err)
				}
			}
		}
		clientCPU[mode] += cpuTime() - cpu0
		dcpu, lost := procCPU(pid)-dcpu0, stealSince(steal)
		daemonCPU[mode] += dcpu
		if mode == 0 {
			stolen := daemonCPUIndex < len(lost) && lost[daemonCPUIndex] > 0
			blocks = append(blocks, cpuBlock{ms(dcpu) / float64(len(batch)), stolen})
		}
		// A delta is far shorter than a 10 ms steal tick. Steal delays the
		// few deltas in flight when it strikes, and the op median leaves
		// those out, so delta times are not corrected for it.
		if tr == nil {
			plain = append(plain, batch...)
		} else {
			traced = append(traced, batch...)
		}
		var err error
		if st, err = readStats(); err != nil {
			return nil
		}
		if time.Now().After(deadline) && (!r.trace || tr != nil) {
			break
		}
	}
	if err := mirror.Verify(); err != nil {
		r.fail("mirror Verify after %d deltas: %v", deltas, err)
	}
	r.reportOps(plain, traced)
	r.e2e["cpu_ms_per_op"] = daemonCPUPerDelta(blocks)
	if deltas < rssAfter {
		rss = peakRSSMB(strconv.Itoa(pid))
	}
	r.e2e["peak_rss_mb"] = rss
	if r.trace {
		l := r.layer
		mst := mirror.Stats()
		l["resolver.delta_us.p50"] = median(resolverUs)
		l["resolver.delta_us.p99"] = percentile(resolverUs, 99)
		l["resolver.moves_per_delta"] = float64(mst.Moves) / float64(max(mst.Deltas, 1))
		l["resolver.full_solves"] = float64(st.FullSolves)
		l["resolver.rollbacks"] = float64(st.Rollbacks)
		l["td-serve.http_us.p50"] = 1000*r.e2e["op_p50_ms"] - median(resolverUs)
		l["td-serve.delta_us.p99"] = 1000 * percentile(field(plain, sample.ownMs), 99)
		l["td-serve.stats_us.p50"] = median(statsUs)
		n := float64(max(modeDeltas[1], 1))
		l["td-serve.cpu_us_per_delta"] = us(daemonCPU[1]) / n
		l["client.cpu_us_per_delta"] = us(clientCPU[1]-mirrorTime[1]) / n
		l["td-serve.refused"] = float64(refused)
		l["td-serve.shed"] = float64(st.Shed)
		l["td-serve.timeouts"] = float64(st.Timeouts)
	}
	return book.save()
}

// cpuBlock is the daemon's CPU per delta over one block of deltas, and
// whether steal took time from the daemon's CPU during the block.
type cpuBlock struct {
	msPerDelta float64
	stolen     bool
}

// daemonCPUPerDelta is the mean over blocks of the daemon's CPU per
// delta, leaving out the blocks in which its CPU lost time to steal (all
// blocks if every one did). Stolen time is not in the daemon's CPU time,
// yet a block hit by steal cost it 10–30% more CPU per delta, and under
// steal bursts of 8–22% a run's mean over all blocks rose by up to 60%
// while its op median did not move. A mean, not a median, so that the
// blocks in which the daemon collects garbage count in proportion.
func daemonCPUPerDelta(blocks []cpuBlock) float64 {
	var clean, all []float64
	for _, b := range blocks {
		all = append(all, b.msPerDelta)
		if !b.stolen {
			clean = append(clean, b.msPerDelta)
		}
	}
	if len(clean) == 0 {
		return mean(all)
	}
	return mean(clean)
}
