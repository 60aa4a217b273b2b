package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// outcome is the checked result of one operation.
type outcome struct {
	Iters  int   // solver iterations the operation spent
	Failed bool  // errored, did not converge, or returned a wrong x
	Wrong  bool  // claimed success but the benchmark's check rejected x
	Err    error // the first problem seen, for the report
}

// rig is a workload after set-up and warm-up: a fixed operation
// sequence and the connections or sessions that run it.
type rig interface {
	// callers is the number of closed-loop callers (1 or 2). Caller c
	// runs operations c, c+callers, c+2·callers, ...
	callers() int
	// ops is the length of the operation sequence.
	ops() int
	// kind names the kind of operation i (a method, or "job").
	kind(i int) string
	// do runs operation i on caller c, records its spans on tr, checks
	// its output, and returns the operation's latency: the time spent in
	// the call into the program, spans included.
	do(c, i int, tr *tracer) (time.Duration, outcome)
	close()
}

// measurement is what one timed pass over a rig's sequence observed.
type measurement struct {
	LatMS   []float64   // latency of each operation, by index
	EndNS   []int64     // completion of each operation, since the pass began
	CPU     []cpuSample // process CPU time sampled through the pass
	Iters   int64
	Tally   tally
	Wall    time.Duration
	Mallocs uint64
	PeakMB  float64 // peak resident memory during the pass, in MiB
}

// cpuSample is the process's CPU time at one instant of a pass.
type cpuSample struct {
	AtNS, CPUNS int64
}

// cpuSampleEvery is the CPU sampling period during a timed pass.
const cpuSampleEvery = 20 * time.Millisecond

// measure runs the rig's whole sequence once, after collecting
// garbage, recording each operation's latency and completion time, heap
// allocations, peak resident memory, and process CPU time sampled
// through the pass.
func measure(r rig, tr *tracer) (measurement, error) {
	n, callers := r.ops(), r.callers()
	m := measurement{LatMS: make([]float64, n), EndNS: make([]int64, n)}
	tallies := make([]tally, callers)
	iters := make([]int64, callers)
	// Start the pass from the same heap and RSS every run.
	collectGarbage()
	restockWaitRecords()
	if err := resetPeakRSS(); err != nil {
		return m, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	stop, sampled := sampleCPU(t0)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += callers {
				d, o := r.do(c, i, tr)
				m.EndNS[i] = int64(time.Since(t0))
				m.LatMS[i] = float64(d) / 1e6
				iters[c] += int64(o.Iters)
				tallies[c].add(r.kind(i), o.Failed, o.Wrong, o.Err)
			}
		}(c)
	}
	wg.Wait()
	m.Wall = time.Since(t0)
	close(stop)
	m.CPU = <-sampled
	runtime.ReadMemStats(&m1)
	m.Mallocs = m1.Mallocs - m0.Mallocs
	for c := range tallies {
		m.Iters += iters[c]
		m.Tally.merge(tallies[c])
	}
	var err error
	m.PeakMB, err = peakRSSMB()
	return m, err
}

// collectGarbage frees all garbage and returns it to the OS. It takes
// two collections: sync.Pool contents survive the first, in the pools'
// victim caches, and go at the second. With one, how much pooled set-up
// garbage (cluster/wire frame buffers, say) the pass started with
// varied from run to run, and so did its peak RSS.
func collectGarbage() {
	runtime.GC()
	debug.FreeOSMemory()
}

// restockWaitRecords refills the runtime's caches of channel-wait
// records (sudogs), which a GC empties. Without it the pass would count
// the runtime re-allocating them, a few at a time and as scheduling
// happens to need them: on a workload whose solves allocate nothing,
// that noise was most of allocs_per_op.
func restockWaitRecords() {
	const waiters = 512 // each holds two records while it waits
	stop, never := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(waiters)
	for k := 0; k < waiters; k++ {
		go func() {
			defer wg.Done()
			select {
			case <-stop:
			case <-never:
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // until every waiter is parked
	close(stop)
	wg.Wait()
}

// sampleCPU samples process CPU time from t0 until stop closes, then
// sends the samples, the last taken at the stop.
func sampleCPU(t0 time.Time) (stop chan struct{}, out chan []cpuSample) {
	stop, out = make(chan struct{}), make(chan []cpuSample, 1)
	go func() {
		tick := time.NewTicker(cpuSampleEvery)
		defer tick.Stop()
		// Room for five minutes of samples, so that the sampler does not
		// allocate during the pass it measures.
		samples := make([]cpuSample, 1, 5*time.Minute/cpuSampleEvery)
		samples[0] = cpuSample{0, int64(cpuTime())}
		for {
			select {
			case <-stop:
				out <- append(samples, cpuSample{int64(time.Since(t0)), int64(cpuTime())})
				return
			case <-tick.C:
				samples = append(samples, cpuSample{int64(time.Since(t0)), int64(cpuTime())})
			}
		}
	}()
	return stop, out
}

// cpuAt interpolates the sampled CPU time at instant at.
func cpuAt(samples []cpuSample, at int64) float64 {
	k := sort.Search(len(samples), func(i int) bool { return samples[i].AtNS >= at })
	switch {
	case k == 0:
		return float64(samples[0].CPUNS)
	case k == len(samples):
		return float64(samples[len(samples)-1].CPUNS)
	}
	a, b := samples[k-1], samples[k]
	if b.AtNS == a.AtNS {
		return float64(b.CPUNS)
	}
	f := float64(at-a.AtNS) / float64(b.AtNS-a.AtNS)
	return float64(a.CPUNS) + f*float64(b.CPUNS-a.CPUNS)
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median. All but the last rig are closed again.
const setupReps = 5

// setupMedian builds the rig setupReps times and returns the last one
// with every set-up time, in seconds.
func setupMedian(build func() (rig, error)) (rig, []float64, error) {
	var times []float64
	var r rig
	for k := 0; k < setupReps; k++ {
		if r != nil {
			// Every set-up starts from the same clean heap.
			r.close()
			r = nil
			collectGarbage()
		}
		t0 := time.Now()
		nr, err := build()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		r = nr
	}
	return r, times, nil
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the kernel's record of peak resident memory
// (VmHWM) back to the current resident size, so that a later
// peakRSSMB covers only what ran in between.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns VmHWM, the peak resident set size since the last
// resetPeakRSS, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// runContext describes where and how a run was made.
type runContext struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
	Ops        int    `json:"ops"`
	Callers    int    `json:"callers"`
	// MemGBps is the memory-streaming probe before and after the timed
	// phase: a diagnostic for host-contention episodes, not a metric.
	MemGBpsBefore float64 `json:"mem_probe_gbps_before"`
	MemGBpsAfter  float64 `json:"mem_probe_gbps_after"`
}

func newRunContext(seed uint64) runContext {
	return runContext{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memProbeBytes is the streaming probe's buffer: 32 MiB, eight times
// the per-core L2, read four times.
const memProbeBytes = 32 << 20

// memProbe times a fixed sum over a freshly mapped buffer and returns
// GB/s. The buffer is unmapped afterwards, so the probe leaves no
// resident memory behind.
func memProbe() (float64, error) {
	buf, err := syscall.Mmap(-1, 0, memProbeBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("memory probe: %w", err)
	}
	defer syscall.Munmap(buf)
	xs := unsafe.Slice((*float64)(unsafe.Pointer(&buf[0])), memProbeBytes/8)
	for i := range xs {
		xs[i] = float64(i & 7)
	}
	const passes = 4
	var s0, s1, s2, s3 float64 // four chains, so the adds keep up with memory
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i := 0; i < len(xs); i += 4 {
			s0 += xs[i]
			s1 += xs[i+1]
			s2 += xs[i+2]
			s3 += xs[i+3]
		}
	}
	d := time.Since(t0)
	if sum := s0 + s1 + s2 + s3; sum < 0 {
		return 0, fmt.Errorf("memory probe: impossible sum %g", sum)
	}
	return float64(passes*memProbeBytes) / d.Seconds() / 1e9, nil
}
