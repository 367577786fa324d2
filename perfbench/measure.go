package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter accumulates what the benchmark measures around its own calls into
// the program: wall time per layer (with the number of calls) and plain
// counts.
type meter struct {
	ns    map[string]time.Duration
	calls map[string]int
	count map[string]float64
}

func newMeter() *meter {
	return &meter{
		ns:    make(map[string]time.Duration),
		calls: make(map[string]int),
		count: make(map[string]float64),
	}
}

// time runs f and charges its wall time to layer.
func (m *meter) time(layer string, f func() error) error {
	t0 := time.Now()
	err := f()
	m.ns[layer] += time.Since(t0)
	m.calls[layer]++
	return err
}

// add adds v to the named count.
func (m *meter) add(name string, v float64) { m.count[name] += v }

// meanMS is the mean wall time of one call into layer, in ms (0 if none).
func (m *meter) meanMS(layer string) float64 {
	if m.calls[layer] == 0 {
		return 0
	}
	return ms(m.ns[layer]) / float64(m.calls[layer])
}

// clone copies the meter; reset empties it in place, so an instance holding
// the meter keeps recording into the same value.
func (m *meter) clone() *meter {
	c := newMeter()
	for k, v := range m.ns {
		c.ns[k] = v
	}
	for k, v := range m.calls {
		c.calls[k] = v
	}
	for k, v := range m.count {
		c.count[k] = v
	}
	return c
}

func (m *meter) reset() {
	clear(m.ns)
	clear(m.calls)
	clear(m.count)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// band is the q-quantile of xs taken as the mean of the values ranked
// within 5 percentile points of it. In session-700 the six edit steps form
// clusters of op times and the median falls between two of them, where a
// single order statistic jumps from run to run; the mean over the band does
// not.
func band(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s) - 1)
	lo := int(math.Floor(math.Max(q-0.05, 0) * n))
	hi := int(math.Ceil(math.Min(q+0.05, 1) * n))
	return mean(s[lo : hi+1])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user+sys CPU time so far (getrusage). Unlike wall
// time it excludes time the hypervisor stole from the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident memory (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// stealSeconds reads the machine-wide hypervisor steal time from the cpu line
// of /proc/stat, converted from USER_HZ ticks (100 per second on Linux).
func stealSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat cpu line %q", line)
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, fmt.Errorf("parse steal: %w", err)
	}
	return ticks / 100, nil
}
