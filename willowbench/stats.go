package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the numpy default). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPU = 2

// cpuNow is the CPU time the process has used so far, all threads
// together. On a guest kernel with steal-time accounting it leaves out
// the time the host ran something else on the guest's virtual CPUs,
// which wall time counts. Another running thread's share is brought up
// to date only at its next scheduler tick (4 ms at HZ=250), so take it
// at points where the process's other threads are idle, or over spans
// much longer than a tick.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// stamp is a point in wall time and in process CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuNow()} }

// since returns the wall and CPU milliseconds from s to now.
func (s stamp) since() (wallMS, cpuMS float64) {
	n := now()
	return ms(n.wall.Sub(s.wall)), ms(n.cpu - s.cpu)
}

// roundStats is what one round of operations measured: per operation,
// its wall and its process CPU milliseconds.
type roundStats struct{ wall, cpu []float64 }

func (rs *roundStats) add(wallMS, cpuMS float64) {
	rs.wall = append(rs.wall, wallMS)
	rs.cpu = append(rs.cpu, cpuMS)
}

// pool joins rounds into one.
func pool(rounds []roundStats) roundStats {
	var all roundStats
	for _, rs := range rounds {
		all.wall = append(all.wall, rs.wall...)
		all.cpu = append(all.cpu, rs.cpu...)
	}
	return all
}

// medianOver is the median over rounds of f of a round.
func medianOver(rounds []roundStats, f func(rs roundStats) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, rs := range rounds {
		xs[i] = f(rs)
	}
	return median(xs)
}

// setTimings sets the timing metrics from rounds of operations, each
// doing work units of work: the rate as the median over rounds, and the
// 90th percentile of an operation's time over all of them, so that at
// least ten operations lie beyond it. Both are taken in process CPU
// time; the wall-time figures are printed alongside.
func setTimings(res *result, rounds []roundStats, work float64) {
	rate := func(xs []float64) float64 { return work * float64(len(xs)) / (sum(xs) / 1e3) }
	all := pool(rounds)
	res.set("rate_per_s", medianOver(rounds, func(rs roundStats) float64 { return rate(rs.cpu) }))
	res.set("latency_p90_ms", quantile(all.cpu, 0.9))
	res.note("%d operations in %d rounds; in wall time: rate %.6g/s, p90 %.4g ms, p50 %.4g ms (CPU p50 %.4g ms)",
		len(all.cpu), len(rounds), medianOver(rounds, func(rs roundStats) float64 { return rate(rs.wall) }),
		quantile(all.wall, 0.9), median(all.wall), median(all.cpu))
}
