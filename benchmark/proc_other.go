//go:build !linux

package main

import "runtime/metrics"

// resetPeakRSS cannot reset a high-water mark off Linux; the peak is
// approximated by the Go runtime's own memory at the end of the window.
func resetPeakRSS() string { return "go-runtime" }

// peakRSSMB returns the memory the Go runtime has mapped, in MiB.
func peakRSSMB(string) float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// processCPUSeconds is unavailable off Linux; utilization then reads 0.
func processCPUSeconds() float64 { return 0 }
