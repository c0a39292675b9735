package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the Harrell–Davis estimate of the q-quantile of
// xs: the mean of all order statistics weighted by a Beta((n+1)q,
// (n+1)(1-q)) distribution. From the few hundred latencies of a window
// with a heavy-tailed request mix it varies less between runs than
// one or two order statistics do. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i, x := range s {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by the continued fraction of Numerical Recipes (§6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 300; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 3e-14 {
			break
		}
	}
	return h
}

// median is the middle value of xs, or the mean of the two middle
// values when there are an even number; 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sliceBounds cuts n consecutive items into slices of size each, the
// last slice taking the remainder, and returns the k+1 start indices
// with n last. A window shorter than two slices is one slice.
func sliceBounds(n, size int) []int {
	k := 1
	if size > 0 && n >= 2*size {
		k = n / size
	}
	b := make([]int, k+1)
	for i := 1; i < k; i++ {
		b[i] = i * size
	}
	b[k] = n
	return b
}

func fmtAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

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

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}

// retainedHeapMiB is the live heap after a forced collection: what the
// daemon (with the generator's inputs) keeps between requests.
func retainedHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// hostLine describes the machine a result was measured on.
func hostLine() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("host: GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
