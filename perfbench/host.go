package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// userHZ is the tick rate of the CPU counters in /proc/stat and
// /proc/<pid>/stat; Linux fixes it at 100 for user space.
const userHZ = 100

// host is the per-run record that lets a noisy run be explained rather
// than hidden: the machine's shape and the hypervisor steal over the run.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	StealS     float64 `json:"steal_s"`
}

func newHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
}

// parseSteal returns the steal ticks of the aggregate "cpu" line of a
// /proc/stat body (the eighth counter: user nice system idle iowait irq
// softirq steal).
func parseSteal(stat []byte) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(stat))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return 0, fmt.Errorf("proc stat: cpu line has %d counters, want ≥ 8", len(f)-1)
		}
		return strconv.ParseInt(f[8], 10, 64)
	}
	return 0, fmt.Errorf("proc stat: no aggregate cpu line")
}

// stealTicks reads the host's cumulative steal time in userHZ ticks.
func stealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	return parseSteal(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfCPU is this process's user plus system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// procCPU is a child process's user plus system CPU seconds, summed over
// its threads.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the counters follow its ")".
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc %d stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc %d stat: bad cpu counters", pid)
	}
	return float64(ut+st) / userHZ, nil
}

// peakRSSMB is a process's VmHWM in MiB; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// childPIDs lists this process's live children whose command is name —
// the worker processes a distengine exec pool spawned.
func childPIDs(name string) []int {
	self := os.Getpid()
	paths, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []int
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		open, end := bytes.IndexByte(b, '('), bytes.LastIndexByte(b, ')')
		if open < 0 || end < open {
			continue
		}
		f := strings.Fields(string(b[end+1:]))
		if string(b[open+1:end]) != name || len(f) < 2 {
			continue
		}
		if ppid, _ := strconv.Atoi(f[1]); ppid == self {
			pid, _ := strconv.Atoi(strings.TrimSpace(string(b[:open])))
			out = append(out, pid)
		}
	}
	return out
}

// usage samples the CPU seconds of this process plus the given children,
// and their largest peak RSS.
type usage struct{ pids []int }

func (u usage) cpu() (float64, error) {
	total := selfCPU()
	for _, pid := range u.pids {
		c, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (u usage) peakRSS() (float64, error) {
	peak, err := peakRSSMB(0)
	if err != nil {
		return 0, err
	}
	for _, pid := range u.pids {
		m, err := peakRSSMB(pid)
		if err != nil {
			return 0, err
		}
		peak = max(peak, m)
	}
	return peak, nil
}
