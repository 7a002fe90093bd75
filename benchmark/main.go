// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It drives the simulator's layers in-process — spec.Runner
// over a core.SessionPool, sweep.Runner — and from outside, through
// serve.New(...).Handler() on a loopback listener, verifies every
// output, and prints one JSON result line on stdout:
//
//	bash benchmark/run.sh --workload paper-regen --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics declared in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a
// traced run and writes the recorded spans under .bench_build/spans/.
// README.md in this directory documents the workloads, the metrics and
// the layer → metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its set-up. Set-up builds the
// system under test, renders the verification references, and runs the
// discarded warm-up ops.
var workloads = map[string]func(seed uint64) (instance, error){
	"paper-regen": setupPaperRegen,
	"small-sweep": setupSmallSweep,
	"daemon-mix":  setupDaemonMix,
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure runs the workload for d and verifies every op. With a
	// non-nil tracer it also records spans and fills window.layer.
	measure(d time.Duration, tr *tracer) window
	// charged describes the seed's exact charged PRAM counts, so two
	// runs of one seed can be diffed.
	charged() string
	close()
}

// window is the outcome of one measured interval.
type window struct {
	attempted, failed int
	failures          []string  // the first few failure descriptions
	lat               []float64 // wall seconds of each successful op
	nsPerOp           []float64 // host ns per charged PRAM op, per successful op
	layer             map[string]float64
	detail            string // human-readable per-kind summary for stderr
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.failures) < 8 {
		w.failures = append(w.failures, err.Error())
	}
}

// setupRepeats is how many times an untraced run sets the workload up:
// the first set-up is measured, the others only timed after the
// window, and setup_s is the median. A traced run sets up once.
const setupRepeats = 3

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-regen, small-sweep or daemon-mix")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	setup, ok := workloads[*name]
	switch {
	case !ok:
		return usage("unknown workload %q (want paper-regen, small-sweep or daemon-mix)", *name)
	case *seconds <= 0:
		return usage("--seconds must be positive (got %v)", *seconds)
	case *traceFlag != 0 && *traceFlag != 1:
		return usage("--trace must be 0 or 1 (got %d)", *traceFlag)
	case flag.NArg() > 0:
		return usage("unexpected argument %q", flag.Arg(0))
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v (run from the repository root)\n", err)
		return 2
	}
	traced := *traceFlag == 1
	d := time.Duration(*seconds * float64(time.Second))
	entry := time.Now()
	goroutines := runtime.NumGoroutine()

	inst, first, err := timedSetup(setup, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s set-up failed: %v\n", *name, err)
		return 1
	}
	setups := []float64{first}
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d %s\n", *name, *seed, inst.charged())

	res := result{correct: true}
	var w window
	if traced {
		untraced := inst.measure(d/2, nil)
		tr := newTracer()
		w = inst.measure(d-d/2, tr)
		inst.close()
		res.add(untraced)
		res.add(w)
		for k, v := range microbenchmarks() {
			w.layer[k] = v
		}
		over := quantile(w.lat, 0.5) - quantile(untraced.lat, 0.5)
		w.layer["bench.untraced_op_p50_s"] = quantile(untraced.lat, 0.5)
		w.layer["bench.traced_op_p50_s"] = quantile(w.lat, 0.5)
		w.layer["bench.trace_overhead_s"] = over
		w.layer["bench.spans"] = float64(len(tr.spans))
		fmt.Fprintf(os.Stderr, "benchmark: tracing overhead %.6f s on op_p50_s (traced %.6f s, untraced %.6f s)\n",
			over, quantile(w.lat, 0.5), quantile(untraced.lat, 0.5))
		path, err := tr.write(*name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing spans: %v\n", err)
			res.correct = false
		} else {
			fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(tr.spans), path)
		}
		tr.summary(os.Stderr)
		res.metrics, err = decl.perLayer.fill(w.layer)
	} else {
		w = inst.measure(d, nil)
		inst.close()
		res.add(w)
		// Read before the repeated set-ups, so the peak is that of the
		// measured set-up and window.
		rss, rerr := peakRSSMB()
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", rerr)
			return 1
		}
		for range setupRepeats - 1 {
			again, t, err := timedSetup(setup, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s repeated set-up failed: %v\n", *name, err)
				return 1
			}
			again.close()
			setups = append(setups, t)
		}
		res.metrics, err = decl.endToEnd.fill(map[string]float64{
			"setup_s":        quantile(setups, 0.5),
			"peak_rss_mb":    rss,
			"op_p50_s":       quantile(w.lat, 0.5),
			"ns_per_pram_op": quantile(w.nsPerOp, 0.5),
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if n := outlived(goroutines); n > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: %d goroutines outlived the run\n", n)
		res.correct = false
	}
	if w.detail != "" {
		fmt.Fprint(os.Stderr, w.detail)
	}
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"op seconds", w.lat}, {"ns/pram-op", w.nsPerOp}} {
		fmt.Fprintf(os.Stderr, "benchmark: %s n=%d min=%.6g p10=%.6g p50=%.6g p90=%.6g\n", q.name, len(q.xs),
			quantile(q.xs, 0), quantile(q.xs, 0.1), quantile(q.xs, 0.5), quantile(q.xs, 0.9))
	}
	rss, _ := peakRSSMB()
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d ops attempted, %d failed, set-ups %v s, peak RSS %.0f MB, wall %.1f s\n",
		*name, res.attempted, res.failed, roundAll(setups), rss, time.Since(entry).Seconds())
	out, err := json.Marshal(res.wire())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.correct || res.failed > 0 {
		return 1
	}
	return 0
}

// timedSetup sets a workload up from a collected heap, so repeated
// set-ups measure the same work, and returns its wall seconds.
func timedSetup(setup func(uint64) (instance, error), seed uint64) (instance, float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	t0 := time.Now()
	inst, err := setup(seed)
	return inst, time.Since(t0).Seconds(), err
}

// outlived waits up to two seconds for every goroutine the run started
// to exit — servers, pools and connections are all shut down by then —
// and returns how many remain.
func outlived(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>")
	return 2
}

// result accumulates the windows of one run into the printed line.
type result struct {
	attempted, failed int
	correct           bool
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(w window) {
	r.attempted += w.attempted
	r.failed += w.failed
	for _, f := range w.failures {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: %s\n", f)
	}
	if len(w.lat) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED: no op completed in the window")
		r.correct = false
	}
}

func (r *result) wire() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct && r.failed == 0, max(r.attempted, 1), r.failed, r.metrics}
}

// declared is the metric list of one BENCHMARK.json section, in file
// order.
type declared []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// fill attaches units to the measured values. A declared metric the
// workload does not exercise reads 0; a measured name BENCHMARK.json
// does not declare is an error, so the two lists cannot drift apart.
func (d declared) fill(vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(d))
	for _, m := range d {
		out[m.Name] = metric{Value: vals[m.Name], Unit: m.Unit}
	}
	var extra []string
	for k := range vals {
		if _, ok := out[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

type declaration struct {
	endToEnd declared
	perLayer declared
}

func loadDeclared(path string) (declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return declaration{}, err
	}
	var doc struct {
		EndToEnd declared `json:"end_to_end"`
		PerLayer declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return declaration{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 || len(doc.PerLayer) == 0 {
		return declaration{}, errors.New(path + ": no end_to_end or per_layer metrics declared")
	}
	return declaration{doc.EndToEnd, doc.PerLayer}, nil
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
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

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000)) / 1000
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS needs /proc/self/status: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
