package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// envRecord is printed before the result so every result says where and
// from what it was measured.
type envRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func captureEnv(workload string, seed int64, seconds int, traced bool) envRecord {
	return envRecord{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	if v := procField("/proc/cpuinfo", "model name"); v != "" {
		return v
	}
	return "unknown"
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// procField returns the value of the first "key: value" line in a /proc file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
