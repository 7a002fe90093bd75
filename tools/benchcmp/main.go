// Command benchcmp is the thresholded benchmark-regression gate: it
// compares two benchjson documents (the committed baseline and a fresh
// run) and fails when wall-clock regresses beyond the threshold or when
// the charged PRAM metrics drift at all.
//
// Per benchmark name it compares
//
//   - mean ns/op: the new mean may exceed the baseline mean by at most
//     -max-regress (default 0.15, i.e. +15%). Wall-clock is
//     machine-dependent, so this check assumes both documents were
//     measured on comparable hardware; -metrics-only skips it.
//   - the charged metrics time-units/op and pram-ops/op (and
//     max-contention when both sides report it): these are pure
//     functions of (benchmark, seed schedule), so the sorted multiset
//     of values across repeated -count runs must match exactly. Any
//     drift means the simulation charges differently and fails the
//     gate regardless of speed. Exactness is only meaningful when both
//     documents were generated with the same -benchtime/-count
//     schedule (the per-iteration seed is the iteration index).
//
// A benchmark present in the baseline but missing from the new run
// fails the gate (coverage must not silently shrink); a new benchmark
// absent from the baseline is reported but passes.
//
// Usage:
//
//	go run ./tools/benchcmp -baseline BENCH_9.json -new BENCH_10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
)

// benchmark mirrors tools/benchjson's output entry.
type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type doc struct {
	Benchmarks []benchmark `json:"benchmarks"`
}

// exactMetrics are the charged simulation metrics that must not drift.
var exactMetrics = []string{"time-units/op", "pram-ops/op", "max-contention"}

// group is one benchmark name's repeated runs.
type group struct {
	ns      []float64
	metrics map[string][]float64
}

func load(path string) (map[string]*group, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var d doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(d.Benchmarks) == 0 {
		return nil, nil, fmt.Errorf("%s: no benchmarks", path)
	}
	byName := map[string]*group{}
	var order []string
	for _, b := range d.Benchmarks {
		g := byName[b.Name]
		if g == nil {
			g = &group{metrics: map[string][]float64{}}
			byName[b.Name] = g
			order = append(order, b.Name)
		}
		g.ns = append(g.ns, b.NsPerOp)
		for k, v := range b.Metrics {
			g.metrics[k] = append(g.metrics[k], v)
		}
	}
	for _, g := range byName {
		for _, vs := range g.metrics {
			sort.Float64s(vs)
		}
	}
	return byName, order, nil
}

func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func main() {
	basePath := flag.String("baseline", "", "committed baseline benchjson document")
	newPath := flag.String("new", "", "freshly measured benchjson document")
	maxRegress := flag.Float64("max-regress", 0.15, "maximum tolerated mean ns/op regression (0.15 = +15%)")
	metricsOnly := flag.Bool("metrics-only", false, "skip the ns/op threshold (cross-machine comparisons); charged metrics must still match exactly")
	flag.Parse()
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -baseline and -new are required")
		os.Exit(2)
	}
	base, order, err := load(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	fresh, freshOrder, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}

	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
	for _, name := range order {
		b := base[name]
		n, ok := fresh[name]
		if !ok {
			fail("%s: present in baseline, missing from new run", name)
			continue
		}
		bMean, nMean := mean(b.ns), mean(n.ns)
		ratio := nMean / bMean
		if !*metricsOnly && ratio > 1+*maxRegress {
			fail("%s: ns/op %.0f -> %.0f (%.2fx, limit %.2fx)",
				name, bMean, nMean, ratio, 1+*maxRegress)
		} else {
			fmt.Printf("ok:   %s: ns/op %.0f -> %.0f (%.2fx)\n", name, bMean, nMean, ratio)
		}
		for _, m := range exactMetrics {
			bv, nv := b.metrics[m], n.metrics[m]
			if len(bv) == 0 && len(nv) == 0 {
				continue
			}
			if !slices.Equal(bv, nv) {
				fail("%s: %s drifted: baseline %v, new %v", name, m, bv, nv)
			}
		}
	}
	for _, name := range freshOrder {
		if _, ok := base[name]; !ok {
			fmt.Printf("note: %s: new benchmark, no baseline\n", name)
		}
	}
	if failed {
		fmt.Println("benchcmp: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchcmp: PASS")
}
