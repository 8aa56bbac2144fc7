package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host describes the machine a run measured on.
type host struct {
	nproc, gomaxprocs int
	goVersion         string
	walFS             string
	// sleepOvershoot is the median amount by which a 50µs time.Sleep
	// overran.
	sleepOvershoot time.Duration
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s wal_fs=%s sleep_50us_overshoot_us=%.1f",
		h.nproc, h.gomaxprocs, h.goVersion, h.walFS, float64(h.sleepOvershoot)/1e3)
}

// recordHost measures the host and refuses a run with more workers than
// CPUs: a closed loop with more workers than CPUs measures the scheduler.
func recordHost(dir string, workers int) (host, error) {
	h := host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		walFS:      fsType(dir),
	}
	if workers > h.nproc {
		return h, fmt.Errorf("%d workers (and connections) but nproc is %d", workers, h.nproc)
	}
	const want = 50 * time.Microsecond
	over := make([]time.Duration, 50)
	for i := range over {
		t0 := time.Now()
		time.Sleep(want)
		over[i] = time.Since(t0) - want
	}
	sort.Slice(over, func(a, b int) bool { return over[a] < over[b] })
	h.sleepOvershoot = over[len(over)/2]
	return h, nil
}

// fsType names the filesystem holding dir, by its statfs magic number.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch uint64(s.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	default:
		return fmt.Sprintf("0x%x", uint64(s.Type))
	}
}

// cpuTicks reads the host's steal and total CPU time from /proc/stat: the
// time a virtual machine's CPUs waited for the hypervisor is the share of a
// window other tenants took. It reads zeros where /proc/stat is missing.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// gcStats is a reading of the Go runtime's collector counters.
type gcStats struct {
	cycles     uint64
	pauseTotal time.Duration
	gcCPU      float64
	totalCPU   float64
}

var gcSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcStats {
	s := make([]metrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{
		cycles:     s[0].Value.Uint64(),
		pauseTotal: time.Duration(ms.PauseTotalNs),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

func (g gcStats) since(prev gcStats) gcStats {
	return gcStats{
		cycles:     g.cycles - prev.cycles,
		pauseTotal: g.pauseTotal - prev.pauseTotal,
		gcCPU:      g.gcCPU - prev.gcCPU,
		totalCPU:   g.totalCPU - prev.totalCPU,
	}
}

// liveHeapMB forces a collection and returns the heap still in use, less
// the bytes the benchmark itself holds in exclude.
func liveHeapMB(exclude int64) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-exclude) / (1 << 20)
}
