//go:build !linux

package contango

// resetPeakRSS is a no-op off Linux.
func resetPeakRSS() {}

// peakRSSMB is unavailable off Linux (Maxrss units differ per platform);
// zero suppresses the benchmark metric.
func peakRSSMB() float64 { return 0 }
