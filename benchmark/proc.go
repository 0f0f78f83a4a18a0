package main

import (
	"crypto/sha256"
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is one reading of the process-level counters the proc.*
// rows are differenced from.
type procSnap struct {
	at         time.Time
	cpu        time.Duration // user + system, whole process
	allocs     uint64
	allocBytes uint64
	mutexWait  time.Duration
	gcPause    time.Duration
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

func takeProcSnap() procSnap {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sync/mutex/wait/total:seconds"},
	}
	metrics.Read(samples)
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	return procSnap{
		at:         time.Now(),
		cpu:        tvDuration(ru.Utime) + tvDuration(ru.Stime),
		allocs:     samples[0].Value.Uint64(),
		allocBytes: samples[1].Value.Uint64(),
		mutexWait:  time.Duration(samples[2].Value.Float64() * float64(time.Second)),
		gcPause:    gc.PauseTotal,
	}
}

// readGauges returns the live heap bytes and goroutine count.
func readGauges() (heapBytes, goroutines uint64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(samples)
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// calibMops runs the fixed host-speed kernel — SHA-256 over a 4 KiB
// buffer, repeatedly, single-threaded — for d and returns millions of
// 64-byte compressions per second. It brackets each workload so that
// host-speed drift between two sets of runs is visible beside them.
func calibMops(d time.Duration) float64 {
	var buf [4096]byte
	blocks := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 64; i++ {
			sum := sha256.Sum256(buf[:])
			copy(buf[:], sum[:])
		}
		blocks += 64 * (len(buf) / 64)
	}
	return float64(blocks) / time.Since(start).Seconds() / 1e6
}

// fsName names the filesystem holding path (the store's fsync cost
// depends on it), or the magic number when it is not a common one.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) & 0xffffffff {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-magic-%x", uint64(st.Type)&0xffffffff)
}
