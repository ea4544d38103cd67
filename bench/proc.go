package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// memSample is the slice of runtime.MemStats the benchmark reports, read
// from this process or, for the daemon, from its /debug/vars page.
type memSample struct {
	Mallocs      uint64
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
	HeapInuse    uint64
}

func selfMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs, ms.HeapInuse}
}

// cpuSeconds is the user+system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks; USER_HZ is 100 on Linux).
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, where field 3 is the first.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable VmHWM %q", v)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
