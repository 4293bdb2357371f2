//go:build linux

package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// resetPeakRSS resets the process's resident-set high-water mark to its
// current RSS, so a later VmHWM read covers only what follows. It returns
// the source peakRSSMB must read: VmHWM, or getrusage's whole-process peak
// when the kernel refuses the reset.
func resetPeakRSS() string {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return "getrusage"
	}
	return "VmHWM"
}

// peakRSSMB reads the high-water resident set in MiB from source.
func peakRSSMB(source string) float64 {
	if source == "VmHWM" {
		if data, err := os.ReadFile("/proc/self/status"); err == nil {
			sc := bufio.NewScanner(bytes.NewReader(data))
			for sc.Scan() {
				line := sc.Text()
				if !strings.HasPrefix(line, "VmHWM:") {
					continue
				}
				f := strings.Fields(line)
				if len(f) >= 2 {
					if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// processCPUSeconds is the user plus system CPU time the process used.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
