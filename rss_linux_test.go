//go:build linux

package contango

import (
	"bufio"
	"bytes"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// rssFromHWM records whether the last resetPeakRSS took: then VmHWM covers
// only what ran since, and peakRSSMB reads it.
var rssFromHWM bool

// resetPeakRSS returns freed heap to the OS and resets the process's
// resident-set high-water mark to its current RSS, so the next peakRSSMB
// covers one bench phase (on top of what earlier phases still hold live)
// rather than the whole process. A kernel that refuses the reset leaves
// peakRSSMB on getrusage's whole-process peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	rssFromHWM = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reports the peak resident set size in MiB since the last
// resetPeakRSS (VmHWM), or over the whole process (getrusage Maxrss, KiB
// on Linux) when the reset failed. A zero return means "unavailable" and
// suppresses the benchmark metric.
func peakRSSMB() float64 {
	if rssFromHWM {
		if data, err := os.ReadFile("/proc/self/status"); err == nil {
			sc := bufio.NewScanner(bytes.NewReader(data))
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) >= 2 && f[0] == "VmHWM:" {
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
	return float64(ru.Maxrss) / 1024
}
