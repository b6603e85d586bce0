package main

import (
	"cmp"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The measured phase is cut into slices. The host this benchmark runs
// on may be shared, and CPU time the hypervisor steals from the
// machine stalls client and daemon alike: on a 2-CPU host each 10 ms
// stolen in a 100 ms slice cost stream-short about 7% of that slice's
// answers. So the timings describe the machine when nothing is
// stolen. Throughput is the rate a least-squares fit of per-slice rate
// against per-slice stolen time gives at zero steal (robust means per
// level are fitted, so a few disturbed slices do not pull it);
// latencies come from the samples completed in the least-stolen slices,
// the stolen-free ones or at least a quarter of them all.
const sliceWidth = 100 * time.Millisecond

// phaseStats are the end-to-end timings of the measured phase.
type phaseStats struct {
	docsPerS, mbPerS float64 // at zero stolen time
	p50, p99         float64 // ms, over the samples completed in the kept slices
	samples          int     // latency samples in the kept slices
	kept, slices     int
}

func summarize(samples []sample, steal []float64, measure time.Duration) phaseStats {
	n := int(measure / sliceWidth)
	docs := make([]float64, n)
	bytes := make([]float64, n)
	for _, s := range samples {
		if b := int(s.end / sliceWidth); b >= 0 && b < n {
			docs[b] += 1 / sliceWidth.Seconds()
			bytes[b] += float64(s.bytes) / sliceWidth.Seconds() / mb
		}
	}
	stolen := func(i int) float64 {
		if i < len(steal) {
			return steal[i]
		}
		return 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(stolen(a), stolen(b)) })
	kept := 0
	for kept < n && (stolen(order[kept]) == 0 || kept < n/4) {
		kept++
	}
	keep := make([]bool, n)
	for _, i := range order[:kept] {
		keep[i] = true
	}
	var lats []float64
	for _, s := range samples {
		if b := int(s.end / sliceWidth); b >= 0 && b < n && keep[b] {
			lats = append(lats, float64(s.lat)/float64(time.Millisecond))
		}
	}
	slices.Sort(lats)
	return phaseStats{
		docsPerS: atZeroSteal(docs, stolen), mbPerS: atZeroSteal(bytes, stolen),
		p50: quantile(lats, 0.50), p99: quantile(lats, 0.99),
		samples: len(lats), kept: kept, slices: n,
	}
}

// atZeroSteal fits the interquartile mean rate at each level of stolen time,
// weighted by the slices at that level, and returns the fit at zero.
func atZeroSteal(rates []float64, stolen func(int) float64) float64 {
	levels := map[float64][]float64{}
	for i, r := range rates {
		levels[stolen(i)] = append(levels[stolen(i)], r)
	}
	var sw, sx, sy, sxx, sxy float64
	for x, rs := range levels {
		w, y := float64(len(rs)), midMean(rs)
		sw, sx, sy, sxx, sxy = sw+w, sx+w*x, sy+w*y, sxx+w*x*x, sxy+w*x*y
	}
	if sw == 0 {
		return 0
	}
	den := sw*sxx - sx*sx
	fit := sy / sw
	if den != 0 {
		fit = (sy*sxx - sx*sxy) / den
	}
	// Extrapolating never claims a rate beyond the slices observed.
	return min(max(fit, slices.Min(rates)), slices.Max(rates))
}

// machineCPU reads the machine's total and stolen CPU time, in clock
// ticks, from /proc/stat. It reports ok=false where that is unavailable.
func machineCPU() (total, steal float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// midMean is the mean of the middle half of v: as robust to a few
// disturbed slices as the median, but not quantized to one slice's
// count.
func midMean(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
