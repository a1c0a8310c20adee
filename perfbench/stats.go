package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rank returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest value with at least q·n values at or below it. For n = 100 the
// 0.9 rank is the 90th value, leaving ten samples beyond it.
func rank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint of xs (the mean of the two middle values when n
// is even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// proc reads the CPU time and resident-set peak of one process from
// /proc: this process when pid is 0, else the child with that pid.
type proc struct{ pid int }

func (p proc) path(file string) string {
	if p.pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", p.pid, file)
}

// cpu is the user plus system CPU time the process has used. For this
// process it comes from getrusage (µs resolution); for a child, from
// /proc/<pid>/stat in clock ticks (USER_HZ, 100 on Linux).
func (p proc) cpu() (time.Duration, error) {
	if p.pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, fmt.Errorf("getrusage: %w", err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	b, err := os.ReadFile(p.path("stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short %s", p.path("stat"))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse %s", p.path("stat"))
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(p.path("status"))
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", p.path("status"))
}

// resetPeak sets the process's peak RSS to its current RSS, so the peak
// read after an operation belongs to that operation. Kernels without
// clear_refs keep the whole-process peak.
func (p proc) resetPeak() {
	_ = os.WriteFile(p.path("clear_refs"), []byte("5"), 0) // best effort: see above
}
