package prim

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lowcontend/internal/machine"
	"lowcontend/internal/xrand"
)

func TestMathHelpers(t *testing.T) {
	if CeilDiv(7, 2) != 4 || CeilDiv(8, 2) != 4 || CeilDiv(0, 5) != 0 {
		t.Error("CeilDiv wrong")
	}
	if ILog2(1) != 0 || ILog2(2) != 1 || ILog2(3) != 1 || ILog2(1024) != 10 {
		t.Error("ILog2 wrong")
	}
	if CeilLog2(1) != 0 || CeilLog2(2) != 1 || CeilLog2(3) != 2 || CeilLog2(1025) != 11 {
		t.Error("CeilLog2 wrong")
	}
	if NextPow2(1) != 1 || NextPow2(3) != 4 || NextPow2(4) != 4 || NextPow2(1000) != 1024 {
		t.Error("NextPow2 wrong")
	}
	if ISqrt(0) != 0 || ISqrt(1) != 1 || ISqrt(15) != 3 || ISqrt(16) != 4 || ISqrt(1<<20) != 1<<10 {
		t.Error("ISqrt wrong")
	}
	if Log2Star(2) != 0 || Log2Star(4) != 1 || Log2Star(16) != 2 || Log2Star(65536) != 3 {
		t.Error("Log2Star wrong")
	}
	if Min(3, 5) != 3 || Max(3, 5) != 5 {
		t.Error("Min/Max wrong")
	}
}

func TestMathHelpersPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("CeilDiv", func() { CeilDiv(1, 0) })
	mustPanic("ILog2", func() { ILog2(0) })
	mustPanic("CeilLog2", func() { CeilLog2(0) })
	mustPanic("NextPow2", func() { NextPow2(0) })
	mustPanic("ISqrt", func() { ISqrt(-1) })
	mustPanic("Log2Star", func() { Log2Star(0) })
}

func TestISqrtProperty(t *testing.T) {
	// v/2 fits a 32-bit int; the squares are checked in int64.
	f := func(v uint32) bool {
		n := int(v / 2)
		r := int64(ISqrt(n))
		return r*r <= int64(n) && (r+1)*(r+1) > int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixSumsSmall(t *testing.T) {
	m := machine.New(machine.EREW, 64)
	in := m.Alloc(5)
	out := m.Alloc(5)
	m.Store(in, []machine.Word{3, 1, 4, 1, 5})
	total, err := PrefixSums(m, in, out, 5)
	if err != nil {
		t.Fatal(err)
	}
	if total != 14 {
		t.Errorf("total = %d", total)
	}
	want := []machine.Word{0, 3, 4, 8, 9}
	got := m.LoadWords(out, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix = %v, want %v", got, want)
		}
	}
	if m.Err() != nil {
		t.Errorf("EREW violation: %v", m.Err())
	}
}

func TestPrefixSumsInPlaceAndEmpty(t *testing.T) {
	m := machine.New(machine.EREW, 64)
	in := m.Alloc(4)
	m.Store(in, []machine.Word{2, 2, 2, 2})
	total, err := PrefixSums(m, in, in, 4)
	if err != nil || total != 8 {
		t.Fatalf("total=%d err=%v", total, err)
	}
	if m.Word(in+3) != 6 {
		t.Errorf("in-place prefix wrong: %v", m.LoadWords(in, 4))
	}
	if tot, err := PrefixSums(m, in, in, 0); err != nil || tot != 0 {
		t.Error("empty prefix should be a no-op")
	}
}

func TestPrefixSumsMatchesSequential(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%300) + 1
		s := xrand.NewStream(seed)
		vals := make([]machine.Word, n)
		for i := range vals {
			vals[i] = machine.Word(s.Intn(100) - 50)
		}
		m := machine.New(machine.EREW, 4*n+64)
		in := m.Alloc(n)
		out := m.Alloc(n)
		m.Store(in, vals)
		total, err := PrefixSums(m, in, out, n)
		if err != nil {
			return false
		}
		var acc machine.Word
		for i := 0; i < n; i++ {
			if m.Word(out+i) != acc {
				return false
			}
			acc += vals[i]
		}
		return total == acc && m.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPrefixSumsLinearWork(t *testing.T) {
	for _, n := range []int{256, 1024, 4096} {
		m := machine.New(machine.EREW, 8*n)
		in := m.Alloc(n)
		out := m.Alloc(n)
		m.Fill(in, n, 1)
		if _, err := PrefixSums(m, in, out, n); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Ops > int64(14*n) {
			t.Errorf("n=%d: prefix sums ops = %d, want O(n)", n, st.Ops)
		}
		if st.Time > int64(10*CeilLog2(n)+20) {
			t.Errorf("n=%d: prefix sums time = %d, want O(lg n)", n, st.Time)
		}
	}
}

func TestPrefixSumsUsesUnitScan(t *testing.T) {
	m := machine.New(machine.ScanSIMDQRQW, 64)
	in := m.Alloc(8)
	out := m.Alloc(8)
	m.Fill(in, 8, 2)
	total, err := PrefixSums(m, in, out, 8)
	if err != nil || total != 16 {
		t.Fatalf("total=%d err=%v", total, err)
	}
	if st := m.Stats(); st.ScanSteps != 1 || st.Time != 1 {
		t.Errorf("scan model should use the unit scan: %+v", st)
	}
}

func TestReduce(t *testing.T) {
	m := machine.New(machine.EREW, 128)
	in := m.Alloc(7)
	out := m.Alloc(1)
	m.Store(in, []machine.Word{1, 2, 3, 4, 5, 6, 7})
	sum, err := Reduce(m, in, 7, out)
	if err != nil || sum != 28 || m.Word(out) != 28 {
		t.Fatalf("sum=%d err=%v", sum, err)
	}
	if sum, err := Reduce(m, in, 0, out); err != nil || sum != 0 {
		t.Error("empty reduce")
	}
}

func TestCopyAndFillPar(t *testing.T) {
	m := machine.New(machine.EREW, 64)
	a := m.Alloc(4)
	b := m.Alloc(4)
	m.Store(a, []machine.Word{1, 2, 3, 4})
	if err := Copy(m, a, b, 4); err != nil {
		t.Fatal(err)
	}
	if m.Word(b+3) != 4 {
		t.Error("copy failed")
	}
	if err := FillPar(m, a, 4, 9); err != nil {
		t.Fatal(err)
	}
	if m.Word(a) != 9 || m.Word(a+3) != 9 {
		t.Error("fill failed")
	}
	if err := Copy(m, a, b, 0); err != nil {
		t.Error("empty copy")
	}
	if err := FillPar(m, a, 0, 1); err != nil {
		t.Error("empty fill")
	}
}

func TestPack(t *testing.T) {
	m := machine.New(machine.EREW, 256)
	flags := m.Alloc(8)
	vals := m.Alloc(8)
	out := m.Alloc(8)
	m.Store(flags, []machine.Word{0, 1, 0, 1, 1, 0, 0, 1})
	m.Store(vals, []machine.Word{10, 11, 12, 13, 14, 15, 16, 17})
	k, err := Pack(m, flags, vals, out, 8)
	if err != nil || k != 4 {
		t.Fatalf("k=%d err=%v", k, err)
	}
	want := []machine.Word{11, 13, 14, 17}
	for i, w := range want {
		if m.Word(out+i) != w {
			t.Fatalf("pack out = %v, want %v", m.LoadWords(out, 4), want)
		}
	}
	if m.Err() != nil {
		t.Errorf("EREW violation: %v", m.Err())
	}
	if k, err := Pack(m, flags, vals, out, 0); err != nil || k != 0 {
		t.Error("empty pack")
	}
}

func sortedCheck(t *testing.T, m *machine.Machine, keys, n int, orig []machine.Word) {
	t.Helper()
	got := m.LoadWords(keys, n)
	want := append([]machine.Word(nil), orig...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", got, want)
		}
	}
}

func TestBitonicSort(t *testing.T) {
	s := xrand.NewStream(5)
	for _, n := range []int{1, 2, 8, 64, 256} {
		vals := make([]machine.Word, n)
		for i := range vals {
			vals[i] = machine.Word(s.Intn(50))
		}
		m := machine.New(machine.EREW, 4*n+16)
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := BitonicSort(m, keys, -1, n); err != nil {
			t.Fatal(err)
		}
		sortedCheck(t, m, keys, n, vals)
		if m.Err() != nil {
			t.Fatalf("n=%d: EREW violation %v", n, m.Err())
		}
	}
}

func TestBitonicSortCarriesPayload(t *testing.T) {
	m := machine.New(machine.EREW, 256)
	keys := m.Alloc(8)
	vals := m.Alloc(8)
	m.Store(keys, []machine.Word{5, 3, 8, 1, 9, 2, 7, 4})
	for i := 0; i < 8; i++ {
		m.SetWord(vals+i, 10*m.Word(keys+i))
	}
	if err := BitonicSort(m, keys, vals, 8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if m.Word(vals+i) != 10*m.Word(keys+i) {
			t.Fatalf("payload desynced at %d", i)
		}
	}
}

func TestBitonicSortRejectsNonPow2(t *testing.T) {
	m := machine.New(machine.EREW, 64)
	keys := m.Alloc(6)
	defer func() {
		if recover() == nil {
			t.Error("BitonicSort on non-power-of-two should panic")
		}
	}()
	_ = BitonicSort(m, keys, -1, 6)
}

func TestBitonicSortPadded(t *testing.T) {
	s := xrand.NewStream(6)
	for _, n := range []int{1, 3, 5, 100, 1000} {
		vals := make([]machine.Word, n)
		for i := range vals {
			vals[i] = machine.Word(s.Intn(1000) - 500)
		}
		m := machine.New(machine.EREW, 8*n+64)
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := BitonicSortPadded(m, keys, -1, n); err != nil {
			t.Fatal(err)
		}
		sortedCheck(t, m, keys, n, vals)
	}
}

func TestBitonicSortPaddedWithPayload(t *testing.T) {
	m := machine.New(machine.EREW, 512)
	n := 5
	keys := m.Alloc(n)
	vals := m.Alloc(n)
	m.Store(keys, []machine.Word{4, 1, 3, 5, 2})
	m.Store(vals, []machine.Word{40, 10, 30, 50, 20})
	if err := BitonicSortPadded(m, keys, vals, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if m.Word(vals+i) != 10*m.Word(keys+i) {
			t.Fatalf("padded payload desynced: %v %v", m.LoadWords(keys, n), m.LoadWords(vals, n))
		}
	}
}

// TestBitonicSortPaddedRejectsSentinelKeys is the regression test for
// keys at or above the padding sentinel, which used to sort among the
// pads and be dropped: keys [2^62-1, 2^62, 5] at n = 3 came back as
// [5, 2^62-1, 2^62-1], and with a payload a pad's 0 replaced 2^62's.
// The sort must instead name the first such key and its index, charge
// nothing and leave memory as it was, with and without a payload.
func TestBitonicSortPaddedRejectsSentinelKeys(t *testing.T) {
	for _, c := range []struct {
		keys []machine.Word
		want string
	}{
		{[]machine.Word{1<<62 - 1, 1 << 62, 5}, "prim: BitonicSortPadded key 4611686018427387903 at index 0 is not below the padding sentinel 4611686018427387903"},
		{[]machine.Word{7, 1 << 62, 5}, "prim: BitonicSortPadded key 4611686018427387904 at index 1 is not below the padding sentinel 4611686018427387903"},
	} {
		for _, payload := range []bool{false, true} {
			m := machine.New(machine.EREW, 64)
			n := len(c.keys)
			keys := m.Alloc(n)
			m.Store(keys, c.keys)
			vals := -1
			if payload {
				vals = m.Alloc(n)
				m.Store(vals, []machine.Word{10, 11, 12})
			}
			before, brk := m.LoadWords(0, 64), m.Allocated()
			err := BitonicSortPadded(m, keys, vals, n)
			if err == nil || err.Error() != c.want {
				t.Errorf("keys %v payload=%v: err %v, want %q", c.keys, payload, err, c.want)
			}
			if st := m.Stats(); st != (machine.Stats{}) {
				t.Errorf("keys %v payload=%v: rejected sort charged %+v", c.keys, payload, st)
			}
			if after := m.LoadWords(0, 64); !slices.Equal(after, before) || m.Allocated() != brk {
				t.Errorf("keys %v payload=%v: memory %v, want %v untouched", c.keys, payload, after, before)
			}
		}
	}
}
