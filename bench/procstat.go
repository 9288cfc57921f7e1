package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/memstats"
)

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes returns the process's resident-set high-water mark. It
// prefers /proc/self/status: getrusage's figure survives exec, so under
// "go run" it would report the go command's memory for small workloads.
func peakRSSBytes() int64 {
	if kb, ok := memstats.PeakRSSKB(); ok {
		return kb * 1024
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// procIO is the part of /proc/self/io the socket phases read: bytes and
// syscall counts of every read and write the process made, sockets
// included.
type procIO struct {
	rchar, wchar, syscr, syscw int64
}

func (a procIO) sub(b procIO) procIO {
	return procIO{a.rchar - b.rchar, a.wchar - b.wchar, a.syscr - b.syscr, a.syscw - b.syscw}
}

// parseProcIO reads the four counters out of the file's "key: value"
// lines; a file missing any of them is an error, so a sandbox that hides
// the counters yields "unavailable", never a zero that reads as free I/O.
func parseProcIO(data []byte) (procIO, error) {
	var io procIO
	want := map[string]*int64{"rchar": &io.rchar, "wchar": &io.wchar, "syscr": &io.syscr, "syscw": &io.syscw}
	found := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		key, val, ok := strings.Cut(string(line), ":")
		dst := want[key]
		if !ok || dst == nil {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("proc io: %s: %w", key, err)
		}
		*dst = v
		found++
	}
	if found != len(want) {
		return procIO{}, fmt.Errorf("proc io: %d of %d counters present", found, len(want))
	}
	return io, nil
}

// procSelfIO is where Linux keeps this process's counters.
const procSelfIO = "/proc/self/io"

func readProcIO(path string) (procIO, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return procIO{}, err
	}
	return parseProcIO(data)
}

// loadAverage returns the one-minute load average, or ok=false where
// /proc/loadavg is unreadable.
func loadAverage() (float64, bool) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, false
	}
	first, _, _ := strings.Cut(string(data), " ")
	v, err := strconv.ParseFloat(first, 64)
	return v, err == nil
}
