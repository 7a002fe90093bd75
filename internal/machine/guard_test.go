package machine

import (
	"fmt"
	"testing"

	"lowcontend/internal/xrand"
)

// guardSpec is one guarded step as data: processor i's guard cell is
// guard+i, holding guards[i]; a nonzero guard skips the processor, and
// an active processor then issues acc[i] in order.
type guardSpec struct {
	memN   int
	guard  int
	guards []Word
	acc    map[int][]guardAcc
}

// guardAcc is one access of an active body: 'r' reads addr, 'w' writes
// val to addr, 'c' computes val ops, 'x' writes a draw of this step's
// stream to addr and 's' one of the replayed stream of step 1.
type guardAcc struct {
	kind byte
	addr int
	val  Word
}

func guardSkip(g Word) bool { return g != 0 }

func (s guardSpec) body(c *Ctx, i int, _ Word) {
	for _, a := range s.acc[i] {
		switch a.kind {
		case 'r':
			c.Read(a.addr)
		case 'w':
			c.Write(a.addr, a.val)
		case 'c':
			c.Compute(int(a.val))
		case 'x':
			c.Write(a.addr, Word(c.Rand().Intn(1000)))
		case 's':
			rs := xrand.StreamFrom(c.SeedFor(1, i))
			c.Write(a.addr, Word(rs.Intn(1000)))
		}
	}
}

// guardOutcome runs s twice — the second step sees the first one's
// writes — as ParDoGuardL or as the ParDoL it stands for, and renders
// everything a step leaves behind: the error, stats, traces, memory,
// and each step's per-kind maxima and arg-max addresses.
func guardOutcome(t testing.TB, s guardSpec, model Model, mode string, guarded bool) string {
	var opts []Option
	switch mode {
	case "trace":
		opts = append(opts, WithTrace())
	case "hot":
		opts = append(opts, WithHotCells(4))
	}
	m := New(model, s.memN, opts...)
	m.Store(s.guard, s.guards)
	out := ""
	for range 2 {
		var err error
		if guarded {
			err = m.ParDoGuardL(len(s.guards), "g", s.guard, guardSkip, s.body)
		} else {
			err = m.ParDoL(len(s.guards), "g", func(c *Ctx, i int) {
				if g := c.Read(s.guard + i); !guardSkip(g) {
					s.body(c, i, g)
				}
			})
		}
		w := m.worker()
		out += fmt.Sprintf("err %v maxR %d@%d maxW %d@%d\n", err, w.maxR, w.maxRAddr, w.maxW, w.maxWAddr)
	}
	checkDirtySound(t, m)
	return out + fmt.Sprintf("%+v\n%+v\n%v", m.Stats(), m.StepTraces(), m.LoadWords(0, s.memN))
}

// checkGuardMatchesScalar compares ParDoGuardL with its scalar ParDoL
// under every model, with tracing and hot-cell profiling off and on.
func checkGuardMatchesScalar(t *testing.T, name string, s guardSpec) {
	t.Helper()
	for _, model := range allModels {
		for _, mode := range []string{"plain", "trace", "hot"} {
			want := guardOutcome(t, s, model, mode, false)
			if got := guardOutcome(t, s, model, mode, true); got != want {
				t.Fatalf("%s, %v %s:\nguarded\n%s\nscalar\n%s", name, model, mode, got, want)
			}
		}
	}
}

func TestGuardMatchesScalar(t *testing.T) {
	r := func(a int) guardAcc { return guardAcc{kind: 'r', addr: a} }
	w := func(a int, v Word) guardAcc { return guardAcc{kind: 'w', addr: a, val: v} }
	for _, c := range []struct {
		name string
		spec guardSpec
	}{
		{"none skipped", guardSpec{32, 8, []Word{0, 0, 0, 0}, map[int][]guardAcc{
			0: {r(20), w(21, 5)}, 2: {guardAcc{kind: 'x', addr: 22}}, 3: {guardAcc{kind: 'c', val: 3}},
		}}},
		{"some skipped", guardSpec{32, 8, []Word{0, 1, 0, 1, 1, 0}, map[int][]guardAcc{
			0: {r(20), w(9, 7)}, 2: {guardAcc{kind: 's', addr: 23}}, 5: {r(20), w(24, 1)},
		}}},
		{"all skipped", guardSpec{32, 8, []Word{1, 2, 3, 4, 5}, nil}},
		// Processor 0 reads processor 2's guard cell, which it skips:
		// that cell has two readers.
		{"active reads a skipped guard", guardSpec{32, 8, []Word{0, 0, 1, 1}, map[int][]guardAcc{
			0: {r(10), w(11, 0)}, 1: {r(30)},
		}}},
		// The lowest count-one read lies below the guard range, so the
		// arg-max must stay there; in the second case it lies above the
		// lowest skipped guard cell, which must take the arg-max.
		{"count-one read below the guards", guardSpec{32, 8, []Word{1, 0, 1}, map[int][]guardAcc{
			1: {r(3), w(4, 2)},
		}}},
		{"count-one read above the lowest skipped guard", guardSpec{32, 8, []Word{1, 0, 1}, map[int][]guardAcc{
			1: {r(20), w(4, 2)},
		}}},
		// Two active processors read cell 25 (an EREW violation away
		// from the guards) and write cell 26.
		{"violation elsewhere", guardSpec{32, 8, []Word{0, 1, 0, 1}, map[int][]guardAcc{
			0: {r(25), w(26, 1)}, 2: {r(25), w(26, 2)},
		}}},
		// Bodies write guard cells; the second step sees the new values.
		{"bodies flip guards", guardSpec{32, 8, []Word{0, 0, 1}, map[int][]guardAcc{
			0: {w(8, 1)}, 1: {w(10, 0), r(10)},
		}}},
	} {
		checkGuardMatchesScalar(t, c.name, c.spec)
	}
}

// TestGuardSkipsRecordNothing shows the fast path is the one tested
// above: a skipped processor leaves no buffered access behind.
func TestGuardSkipsRecordNothing(t *testing.T) {
	m := New(QRQW, 64)
	g := m.Alloc(32)
	m.Fill(g, 32, 1)
	m.SetWord(g+5, 0)
	if err := m.ParDoGuardL(32, "g", g, guardSkip, func(c *Ctx, i int, _ Word) { c.Read(40) }); err != nil {
		t.Fatal(err)
	}
	if got := m.worker().readAddrs; len(got) != 2 {
		t.Errorf("buffered reads %v, want the active processor's two", got)
	}
	if st := m.Stats(); st.ReadOps != 33 || st.Ops != 33 {
		t.Errorf("stats %+v, want 33 reads", st)
	}
}

// genGuardSpec draws a guarded step over a small memory: a guard range
// at a random base, each processor skipped with probability 1/2, and
// active bodies of up to four accesses anywhere in memory, the guard
// range included, so skipped guard cells are sometimes read.
func genGuardSpec(rng *xrand.Stream) guardSpec {
	const memN = 48
	p := 1 + rng.Intn(16)
	s := guardSpec{memN: memN, guard: rng.Intn(memN - p + 1), guards: make([]Word, p), acc: map[int][]guardAcc{}}
	kinds := []byte("rrrwwcxs")
	for i := range p {
		s.guards[i] = Word(rng.Intn(2))
		for range rng.Intn(5) {
			a := guardAcc{kind: kinds[rng.Intn(len(kinds))], addr: rng.Intn(memN), val: Word(rng.Intn(3))}
			if rng.Intn(3) == 0 {
				a.addr = s.guard + rng.Intn(p)
			}
			s.acc[i] = append(s.acc[i], a)
		}
	}
	return s
}

// FuzzGuardMatchesScalar is the guarded step's equivalence property: a
// random guarded step charges, traces, fails and writes exactly as the
// ParDoL that reads the guard inside its body.
func FuzzGuardMatchesScalar(f *testing.F) {
	seeds := xrand.NewStream(20261019)
	for range 40 {
		f.Add(seeds.Uint64())
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := genGuardSpec(xrand.NewStream(seed))
		checkGuardMatchesScalar(t, fmt.Sprintf("seed %d %+v", seed, s), s)
	})
}

// TestGuardedParDoAllocsZero: an untraced guarded step allocates
// nothing, whether its processors run or skip.
func TestGuardedParDoAllocsZero(t *testing.T) {
	m := New(QRQW, 512)
	g := m.Alloc(256)
	for i := 0; i < 256; i += 3 {
		m.SetWord(g+i, 1)
	}
	base := m.Alloc(256)
	body := func(c *Ctx, i int, _ Word) {
		c.Read(base + i)
		c.Write(base+i, Word(c.Rand().Intn(8)))
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := m.ParDoGuardL(256, "g", g, guardSkip, body); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("untraced ParDoGuardL allocates %.1f objects/step, want 0", avg)
	}
}
