package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a getrusage snapshot of the whole process.
type usage struct {
	cpu         time.Duration // user + system
	vcsw, ivcsw int64
	maxRSSKB    int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		vcsw:     int64(ru.Nvcsw),
		ivcsw:    int64(ru.Nivcsw),
		maxRSSKB: int64(ru.Maxrss),
	}
}

func (u usage) sub(o usage) usage {
	return usage{cpu: u.cpu - o.cpu, vcsw: u.vcsw - o.vcsw, ivcsw: u.ivcsw - o.ivcsw, maxRSSKB: u.maxRSSKB}
}

// goStats is a runtime/metrics snapshot: the Go layer's allocation and
// collector activity.
type goStats struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGo() goStats {
	s := append([]metrics.Sample(nil), goSamples...)
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{g.allocBytes - o.allocBytes, g.gcCycles - o.gcCycles, g.gcCPU - o.gcCPU}
}

func (g goStats) plus(o goStats) goStats {
	return goStats{g.allocBytes + o.allocBytes, g.gcCycles + o.gcCycles, g.gcCPU + o.gcCPU}
}

// cost is what the process spent on the operations of a pass: CPU time
// and Go runtime activity, summed over the operations alone so that the
// benchmark's own work between them does not count.
type cost struct {
	cpu time.Duration
	goStats
}

func readCost() cost { return cost{readUsage().cpu, readGo()} }

// since returns the cost incurred since c was read.
func (c cost) since() cost {
	now := readCost()
	return cost{now.cpu - c.cpu, now.goStats.sub(c.goStats)}
}

func (c *cost) add(d cost) {
	c.cpu += d.cpu
	c.goStats = c.goStats.plus(d.goStats)
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total jiffies and
// the steal share of them. ok is false where the file is unavailable.
func cpuTimes() (total, steal int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, 0, false
			}
			// guest and guest_nice (fields 9, 10) are already inside user.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return total, steal, true
	}
	return 0, 0, false
}

// stealMeter measures the host's steal share over an interval.
type stealMeter struct {
	total, steal int64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTimes()
	return stealMeter{t, s, ok}
}

// frac returns the steal share of all CPU time since the meter started.
func (m stealMeter) frac() float64 {
	t, s, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// refSink keeps the reference loop's result live.
var refSink uint64

// refLoop times a fixed CPU-bound loop: the same work on every run, so a
// change in its time is the host's doing, not the program's.
func refLoop() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink += x
	return time.Since(t0)
}
