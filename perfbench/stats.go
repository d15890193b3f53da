package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// median is the 50th percentile: the middle sample, or the mean of the
// middle two.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the p-th percentile (0 <= p <= 100), interpolating
// linearly between the two nearest samples at rank p/100 * (n-1). With
// ten samples the p90 lies between the two slowest, not on the slowest
// alone.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// medianIndex returns the index of the lower-median sample of xs.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })
	return idx[(len(idx)-1)/2]
}

const mib = 1 << 20

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current RSS, so the peak read at the end covers only what follows. It
// writes the process's own /proc control file; where that is refused the
// peak also covers set-up, which the caller reports.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// stealTicks reads the machine-wide steal counter (the eighth field of
// the aggregate "cpu" line of /proc/stat): time a hypervisor ran someone
// else on this machine's virtual CPUs. It returns -1 where unavailable.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

var calibSink uint64

// calibrate times a fixed loop of dependent random reads over 32 MiB
// three times and returns the median in seconds. The loop does nothing
// the program under test does, so a slower reading between run sets
// points at the machine: contention for memory bandwidth and cache from
// other tenants slows it, as it slows the checker's allocation-heavy
// phases.
func calibrate() float64 {
	buf := make([]uint32, 8<<20)
	for i := range buf {
		buf[i] = uint32(i*2654435761) & (8<<20 - 1)
	}
	var ts []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint32(r)
		for i := 0; i < 1<<19; i++ {
			x = buf[x] ^ uint32(i)&(8<<20-1)
		}
		calibSink += uint64(x)
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts)
}
