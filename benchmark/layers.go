package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/dynamic"
	"lowcontend/internal/machine"
	"lowcontend/internal/obs"
	"lowcontend/internal/sweep"
)

// definitionFile is the dynamic definition the parse and compile
// microbenchmarks read: the Table I clone shipped with the repository.
const definitionFile = "testdata/definitions/table1-dynamic.json"

// microRepeats is how many timed repetitions each microbenchmark takes
// its median over.
const microRepeats = 7

// microbenchmarks times public calls of single layers directly, the
// same on every workload. A layer whose input is missing reports no
// metric and says why on stderr.
func microbenchmarks() map[string]float64 {
	m := make(map[string]float64)
	poolMicro(m)
	obsMicro(m)
	if err := dynamicMicro(m); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: dynamic.* not measured: %v\n", err)
	}
	if err := renderMicro(m); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: sweep.render_text_us not measured: %v\n", err)
	}
	return m
}

// medianOf times f microRepeats times and returns the median duration.
func medianOf(f func() time.Duration) time.Duration {
	ds := make([]float64, microRepeats)
	for i := range ds {
		ds[i] = float64(f())
	}
	return time.Duration(quantile(ds, 0.5))
}

// registryShapes are the session capacities (memory words) the
// builtin registry acquires.
var registryShapes = []struct {
	name  string
	words int
}{{"16k", 1 << 14}, {"256k", 1 << 18}, {"1m", 1 << 20}, {"2m", 1 << 21}}

// poolMicro times SessionPool.Acquire of an idle session and Release at
// each registry shape. Release resets the machine, so its cost follows
// the session's capacity.
func poolMicro(m map[string]float64) {
	pool := core.NewSessionPool()
	pool.Workers = 1
	defer pool.Close()
	for _, sh := range registryShapes {
		pool.Release(pool.Acquire(machine.QRQW, sh.words, 1)) // construct once
		var acq, rel time.Duration
		rel = medianOf(func() time.Duration {
			t0 := time.Now()
			s := pool.Acquire(machine.QRQW, sh.words, 1)
			t1 := time.Now()
			pool.Release(s)
			acq += t1.Sub(t0)
			return time.Since(t1)
		})
		m["core.acquire_us."+sh.name] = float64(acq) / microRepeats / 1e3
		m["core.release_us."+sh.name] = float64(rel) / 1e3
	}
}

// obsMicro times Histogram.Observe and Flight.Record per call, from one
// goroutine and from GOMAXPROCS goroutines at once.
func obsMicro(m map[string]float64) {
	const calls = 200_000
	for _, g := range []struct {
		name string
		n    int
	}{{"g1", 1}, {"gmax", runtime.GOMAXPROCS(0)}} {
		h := obs.NewHistogram(nil)
		f := obs.NewFlight(obs.DefaultFlightEvents)
		m["obs.histogram_observe_ns."+g.name] = perCall(g.n, calls, func(i int) {
			h.Observe(time.Duration(i) * time.Microsecond)
		})
		m["obs.flight_record_ns."+g.name] = perCall(g.n, calls, func(i int) {
			f.Record("cell", obs.FStr("job", "run-1"), obs.FStr("cell", "L=4"), obs.FInt("serial_steps", int64(i)))
		})
	}
}

// perCall runs f calls times on each of n goroutines and returns the
// median wall nanoseconds per call on one goroutine.
func perCall(n, calls int, f func(int)) float64 {
	d := medianOf(func() time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range calls {
					f(i)
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	})
	return float64(d) / float64(calls)
}

// dynamicMicro times dynamic.Parse and dynamic.Compile of the shipped
// Table I definition.
func dynamicMicro(m map[string]float64) error {
	raw, err := os.ReadFile(definitionFile)
	if err != nil {
		return err
	}
	def, derr := dynamic.Parse(raw, dynamic.DefaultLimits())
	if derr != nil {
		return fmt.Errorf("%s: %v", definitionFile, derr)
	}
	const calls = 200
	parse := medianOf(func() time.Duration {
		t0 := time.Now()
		for range calls {
			dynamic.Parse(raw, dynamic.DefaultLimits())
		}
		return time.Since(t0)
	})
	compile := medianOf(func() time.Duration {
		t0 := time.Now()
		for range calls {
			dynamic.Compile(def)
		}
		return time.Since(t0)
	})
	m["dynamic.parse_us"] = float64(parse) / calls / 1e3
	m["dynamic.compile_us"] = float64(compile) / calls / 1e3
	return nil
}

// renderMicro times sweep.RenderText on a fixed small sweep: lowerbound
// at L = 4 and 16 under the default models, seed 1.
func renderMicro(m map[string]float64) error {
	e, ok := exp.Find("lowerbound")
	if !ok {
		return fmt.Errorf("experiment lowerbound is not in the registry")
	}
	plan, err := sweep.Normalize(e, sweep.Plan{Sizes: []int{4, 16}})
	if err != nil {
		return err
	}
	res := (&sweep.Runner{Parallel: 1}).Run(e, plan)
	const calls = 200
	d := medianOf(func() time.Duration {
		t0 := time.Now()
		for range calls {
			sweep.RenderText(res)
		}
		return time.Since(t0)
	})
	m["sweep.render_text_us"] = float64(d) / calls / 1e3
	return nil
}
