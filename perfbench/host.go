package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostInfo is the provenance and host state printed with every run. The
// calibration time and the steal share are diagnostics only: no metric
// is scaled by them. (Op and set-up times do leave out the time steal
// provably cost them; see stolenSince.)
type hostInfo struct {
	nproc, gomaxprocs int
	cpuModel          string
	goVersion         string
	srcDigest         string
	calMs             float64
	stealPct          float64
	stat0             cpuStat
}

// probeHost describes the machine, digests the sources under root, runs
// the calibration kernel and starts the steal counter.
func probeHost(root string) hostInfo {
	h := hostInfo{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		cpuModel:   cpuModel(),
		goVersion:  runtime.Version(),
		srcDigest:  sourceDigest(root),
	}
	h.calMs = calibrate()
	h.stat0 = readCPUStat()
	return h
}

func (h *hostInfo) provenance() string {
	return fmt.Sprintf("provenance: nproc=%d gomaxprocs=%d cpu=%q go=%s src=%s",
		h.nproc, h.gomaxprocs, h.cpuModel, h.goVersion, h.srcDigest)
}

// diagnostics closes the steal window opened by probeHost.
func (h *hostInfo) diagnostics() string {
	h.stealPct = readCPUStat().stealPctSince(h.stat0)
	return fmt.Sprintf("host: steal_pct=%.2f cal_ms=%.3f", h.stealPct, h.calMs)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every Go source and module
// file under root, in path order, skipping the build directory.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(sum, "%s\x00", rel)
		if f, err := os.Open(p); err == nil {
			_, _ = io.Copy(sum, f)
			f.Close()
		}
	}
	return "sha256:" + hex.EncodeToString(sum.Sum(nil))[:16]
}

// calibrate runs a fixed two-goroutine memory kernel five times and
// returns the median wall time in milliseconds.
func calibrate() float64 {
	const words = 1 << 20 // 8 MiB per goroutine
	bufs := [2][]uint64{make([]uint64, words), make([]uint64, words)}
	times := make([]float64, 5)
	for rep := range times {
		start := time.Now()
		var wg sync.WaitGroup
		for g := range bufs {
			wg.Add(1)
			go func(buf []uint64) {
				defer wg.Done()
				x := uint64(88172645463325252)
				for i := 0; i < 4*words; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					buf[x&(words-1)] += x
				}
			}(bufs[g])
		}
		wg.Wait()
		times[rep] = ms(time.Since(start))
	}
	return median(times)
}

// cpuStat is the aggregate line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s cpuStat
	for i := 1; i < len(f) && i <= 8; i++ { // user..steal; guest time is already in user
		v, _ := strconv.ParseUint(f[i], 10, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

func (s cpuStat) stealPctSince(t cpuStat) float64 {
	if s.total <= t.total {
		return 0
	}
	return 100 * float64(s.steal-t.steal) / float64(s.total-t.total)
}

// stealMark is a reading of every CPU's steal counter (the steal column
// of the per-CPU lines of /proc/stat, in USER_HZ ticks of 10ms).
type stealMark []uint64

func markSteal() stealMark {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var m stealMark
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		v, _ := strconv.ParseUint(f[8], 10, 64)
		m = append(m, v)
	}
	return m
}

// stealTick is the unit of the steal counters.
const stealTick = 10 * time.Millisecond

// stealSince returns each CPU's steal, in ticks, since m.
func stealSince(m stealMark) stealMark {
	d := make(stealMark, len(m))
	for i, v := range markSteal() {
		if i < len(m) && v > m[i] {
			d[i] = v - m[i]
		}
	}
	return d
}

// leastStolen returns the least steal any one CPU saw, as a time. A
// single-threaded step loses the steal of the CPU it runs on, not that
// of every CPU, so this is the charge that does not over-correct it.
func leastStolen(perCPU stealMark) time.Duration {
	if len(perCPU) == 0 {
		return 0
	}
	return time.Duration(slices.Min(perCPU)) * stealTick
}

// stolenSince returns the largest time the hypervisor took from any one
// CPU since m. An op that keeps every CPU busy, as the sharded solves do
// between round barriers, waits at least this long for the CPU that was
// stolen from; it is 0 on an unshared host. Single-threaded steps are
// charged leastStolen instead.
func stolenSince(m stealMark) time.Duration { return mostStolen(stealSince(m)) }

// mostStolen returns the most steal any one CPU saw, as a time.
func mostStolen(perCPU stealMark) time.Duration {
	return time.Duration(slices.Max(append(perCPU, 0))) * stealTick
}

// cpuTime returns this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// resetPeakRSS restarts the kernel's resident high-water mark of this
// process, so the next peakRSSMB reads the peak of what ran in between.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB returns VmHWM of the given /proc/<pid>/status in MiB.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// procCPU returns the CPU time of every thread of process pid from the
// scheduler's own accounting (/proc/<pid>/task/*/schedstat, in ns),
// which unlike the utime and stime of /proc/<pid>/stat is not rounded to
// 10 ms ticks. Like those it leaves out time stolen by the hypervisor.
func procCPU(pid int) time.Duration {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread has just exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, _ := strconv.ParseInt(f[0], 10, 64)
		total += time.Duration(ns)
	}
	return total
}

// pinProcess binds every thread of process pid to the given CPU. Threads
// the process starts later inherit the binding from their creator.
func pinProcess(pid, cpu int) error {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return err
	}
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has just exited
			return fmt.Errorf("pinning thread %d of %d to CPU %d: %w", tid, pid, cpu, errno)
		}
	}
	return nil
}
