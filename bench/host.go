package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/self/status.
func procStatusKB(key string) (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", key)
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	kb, err := procStatusKB("VmHWM")
	return float64(kb) / 1024, err
}

// mallocs returns the process-wide count of heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// fingerprint identifies the host and toolchain a set of numbers was taken
// on; baselines carry it so that numbers are only compared like for like.
type fingerprint struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		Go:         runtime.Version(),
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fp
}

// runSet is the file -json writes: one process's results with where and
// how they were taken.
type runSet struct {
	Host    fingerprint       `json:"host"`
	Commit  string            `json:"commit"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Trace   bool              `json:"trace"`
	Results map[string]result `json:"results"`
}

func writeRunSet(path string, rc *runCfg, results map[string]result) error {
	rs := runSet{Host: hostFingerprint(), Commit: os.Getenv("BENCH_COMMIT"), Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace, Results: results}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
