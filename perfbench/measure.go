package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (the "type 7" estimator). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rate converts round times in ms into updates per second for rounds
// of updates/batches updates each.
func rate(roundsMs []float64, updates, batches int) float64 {
	var sum float64
	for _, v := range roundsMs {
		sum += v
	}
	if sum <= 0 || batches == 0 {
		return 0
	}
	return float64(updates) / float64(batches) * float64(len(roundsMs)) / (sum / 1000)
}

// tailOK reports whether the 95th percentile of n samples has at least
// min samples beyond it, the condition for reporting it.
func tailOK(n, min int) bool { return n >= p95Need(min) }

// p95Need is the sample count that leaves min samples beyond the 95th
// percentile.
func p95Need(min int) int { return 20 * min }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Host steal. On a shared host the hypervisor takes slices of the VM's
// CPUs away for seconds at a time, stretching every operation that runs
// meanwhile by an amount the program does not control. A monitor reads
// the host's cumulative steal every stealPeriod for the whole run, and
// a timed operation counts as undisturbed only when the host stole at
// most stealLimit of the VM's CPU capacity both over the operation
// itself and over the operation with the stealPad before it (opShare).
// /proc/stat counts steal in 10 ms ticks, so the first test catches a
// preemption long enough to cross a tick, the second a steal episode
// made of shorter ones.
const (
	stealLimit  = 0.05
	stealPeriod = 20 * time.Millisecond
	stealPad    = 500 * time.Millisecond
)

// stealMonitor records the host's cumulative steal over time.
type stealMonitor struct {
	mu    sync.Mutex
	at    []time.Time
	steal []float64

	stop chan struct{}
	done chan struct{}
}

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.record()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.record()
			}
		}
	}()
	return m
}

func (m *stealMonitor) record() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steal = append(m.steal, stealSeconds())
	m.at = append(m.at, time.Now())
}

// close stops the monitor and waits for its goroutine.
func (m *stealMonitor) close() {
	close(m.stop)
	<-m.done
}

// opShare is the share of the VM's CPU capacity the host stole around
// an operation that ran from from to to: the larger of the share over
// the operation's own interval, which catches a preemption that hit it,
// and the share over the interval and the stealPad before it, which
// catches the steal episode it ran in.
func (m *stealMonitor) opShare(from, to time.Time) float64 {
	m.record()
	return max(m.share(from, to), m.share(from.Add(-stealPad), to))
}

// share is the share of the VM's CPU capacity the host stole from from
// to to, over the readings taken so far.
func (m *stealMonitor) share(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	// lo: the last reading at or before from; hi: the first reading at
	// or after to (or the newest one).
	lo := sort.Search(len(m.at), func(i int) bool { return m.at[i].After(from) }) - 1
	hi := sort.Search(len(m.at), func(i int) bool { return !m.at[i].Before(to) })
	lo = max(lo, 0)
	hi = min(hi, len(m.at)-1)
	d := m.at[hi].Sub(m.at[lo]).Seconds() * float64(runtime.NumCPU())
	if d <= 0 {
		return 0
	}
	return (m.steal[hi] - m.steal[lo]) / d
}

// quietBudget bounds how long one run may wait in awaitQuiet, so a host
// that never quiets costs a run at most this much extra time.
const quietBudget = 6 * time.Second

// awaitQuiet waits up to limit, within the run's quiet budget, until the
// host stole at most stealLimit over the last stealPad. Callers use it
// only where the wait is think time of a single closed-loop caller or
// falls between repetitions, never inside a timed operation.
func (e *runEnv) awaitQuiet(limit time.Duration) {
	start := time.Now()
	deadline := start.Add(min(limit, quietBudget-e.diag.quietWait))
	for now := start; now.Before(deadline); now = time.Now() {
		if e.steal.share(now.Add(-stealPad), now) <= stealLimit {
			break
		}
		time.Sleep(stealPeriod)
	}
	e.diag.quietWait += time.Since(start)
}

// sample is one measured value with the share of the VM's CPU capacity
// the host stole around it.
type sample struct {
	v     float64
	share float64
}

// sample records v, measured from from to to.
func (e *runEnv) sample(v float64, from, to time.Time) sample {
	return sample{v: v, share: e.steal.opShare(from, to)}
}

func (s sample) clean() bool { return s.share <= stealLimit }

// cleanValues returns the values of the undisturbed samples. When fewer
// than need are undisturbed, it returns the need samples the host
// disturbed least (all of them if there are fewer), so a statistic never
// rests on fewer samples than it needs.
func cleanValues(ss []sample, need int) []float64 {
	byShare := append([]sample(nil), ss...)
	sort.SliceStable(byShare, func(a, b int) bool { return byShare[a].share < byShare[b].share })
	n := 0
	for n < len(byShare) && byShare[n].clean() {
		n++
	}
	n = min(max(n, need), len(byShare))
	out := make([]float64, n)
	for i := range out {
		out[i] = byShare[i].v
	}
	return out
}

// quietHalf returns cleanValues of ss resting on at least half of them.
func quietHalf(ss []sample) []float64 { return cleanValues(ss, (len(ss)+1)/2) }

// repeatClean calls fn, each time once the host is quiet, until want of
// its samples are undisturbed or it has run limit times, and returns
// cleanValues of what it measured.
func (e *runEnv) repeatClean(want, limit int, fn func() (sample, error)) ([]float64, error) {
	var all []sample
	for clean := 0; len(all) < limit && clean < want; {
		e.awaitQuiet(time.Second)
		s, err := fn()
		if err != nil {
			return nil, err
		}
		all = append(all, s)
		if s.clean() {
			clean++
		}
	}
	return cleanValues(all, want), nil
}

// settle prepares a timed section: a full collection, so garbage from
// set-up is not collected inside it, and a sync of dirty pages, so
// write-back of earlier files does not compete with its fsyncs.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// heapMB is the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// rtSample reads the runtime counters the per-layer runtime metrics are
// deltas of.
type rtSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64 // cumulative available CPU seconds (runtime estimate)
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// gcFrac is the share of CPU time the collector used between a and b.
func gcFrac(a, b rtSample) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// diagnostics is printed with every run so a slow run can be traced to
// the host: how many CPUs Go used, which toolchain built the program, the
// process CPU time, the hypervisor steal time over the run and its timed
// sections, and how long the run waited for the host to quiet.
type diagnostics struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Traced       bool    `json:"traced"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	WallSeconds  float64 `json:"wall_seconds"`
	CPUSeconds   float64 `json:"cpu_seconds"`
	StealSeconds float64 `json:"steal_seconds"`
	TimedSeconds float64 `json:"timed_seconds"`
	TimedSteal   float64 `json:"timed_steal_seconds"`
	QuietWait    float64 `json:"quiet_wait_seconds"`

	start      time.Time
	startSteal float64
	timedStart float64
	quietWait  time.Duration
}

func startDiagnostics() *diagnostics {
	return &diagnostics{start: time.Now(), startSteal: stealSeconds()}
}

// beginTimed and endTimed bracket a timed section.
func (d *diagnostics) beginTimed() { d.timedStart = stealSeconds() }

func (d *diagnostics) endTimed(elapsed time.Duration) {
	d.TimedSeconds += elapsed.Seconds()
	d.TimedSteal += stealSeconds() - d.timedStart
}

func (d *diagnostics) finish(env *runEnv) *diagnostics {
	d.Workload, d.Seed, d.Traced = env.workload, env.seed, env.traced
	d.GOMAXPROCS = runtime.GOMAXPROCS(0)
	d.GoVersion = runtime.Version()
	d.WallSeconds = time.Since(d.start).Seconds()
	d.CPUSeconds = processCPUSeconds()
	d.StealSeconds = stealSeconds() - d.startSteal
	d.QuietWait = d.quietWait.Seconds()
	return d
}

func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds reads the host-wide steal time from /proc/stat (the eighth
// value of the aggregate cpu line, in USER_HZ ticks of 1/100 s). It
// returns 0 where the file is missing or unreadable.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	v, err := parseSteal(sc.Text())
	if err != nil {
		return 0
	}
	return v
}

func parseSteal(line string) (float64, error) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(ticks) / 100, nil
}
