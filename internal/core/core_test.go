package core

import (
	"sort"
	"testing"

	"lowcontend/internal/perm"
)

func TestRandomPermutationSession(t *testing.T) {
	s := NewSession(QRQW, 1<<14, WithSeed(1))
	p, err := s.RandomPermutation(256)
	if err != nil || !perm.IsPermutation(p) {
		t.Fatalf("p invalid, err=%v", err)
	}
	if s.Stats().Steps == 0 {
		t.Error("session recorded no steps")
	}
	if s.Model() != QRQW {
		t.Errorf("Model() = %v", s.Model())
	}
}

func TestCyclicSession(t *testing.T) {
	s := NewSession(QRQW, 1<<16, WithSeed(2))
	p, err := s.RandomCyclicPermutation(64)
	if err != nil || !perm.IsCyclic(p) {
		t.Fatalf("not cyclic, err=%v", err)
	}
}

func TestMultipleCompactionSession(t *testing.T) {
	s := NewSession(QRQW, 1<<14, WithSeed(3))
	labels := make([]int, 100)
	for i := range labels {
		labels[i] = i % 7
	}
	pos, err := s.MultipleCompaction(labels, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, p := range pos {
		if seen[p] {
			t.Fatal("duplicate cell")
		}
		seen[p] = true
	}
}

func TestSortSessions(t *testing.T) {
	s := NewSession(QRQW, 1<<16, WithSeed(4))
	keys := []Word{5, 3, 9, 1, 7, 2, 8, 0, 6, 4}
	if err := s.SortUniform(keys, 10); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("not sorted: %v", keys)
	}
}

func TestHashAndBalanceSessions(t *testing.T) {
	s := NewSession(QRQW, 1<<18, WithSeed(5))
	keys := make([]Word, 128)
	for i := range keys {
		keys[i] = Word(i*977 + 13)
	}
	tb, err := s.BuildHashTable(keys)
	if err != nil {
		t.Fatal(err)
	}
	found, err := tb.Lookup([]Word{keys[0], keys[100], 999999})
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || !found[1] || found[2] {
		t.Fatalf("lookup = %v", found)
	}

	counts := make([]int, 128)
	counts[0] = 40
	asg, err := s.BalanceLoads(counts)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rs := range asg {
		for _, r := range rs {
			total += r.Len
		}
	}
	if total != 40 {
		t.Fatalf("balanced total = %d", total)
	}
}

func TestDeviceSliceRoundTrip(t *testing.T) {
	s := NewSession(QRQW, 64)
	d := s.Upload([]Word{3, 1, 4, 1, 5})
	if d.Len() != 5 {
		t.Fatalf("Len = %d", d.Len())
	}
	got := d.Download()
	for i, want := range []Word{3, 1, 4, 1, 5} {
		if got[i] != want {
			t.Fatalf("Download = %v", got)
		}
	}
	z := s.Malloc(3)
	if z.Base() != d.Base()+5 {
		t.Errorf("Malloc base = %d, want %d", z.Base(), d.Base()+5)
	}
	for _, v := range z.Download() {
		if v != 0 {
			t.Error("Malloc memory not zeroed")
		}
	}
	di := s.UploadInts([]int{7, 8})
	ints := di.DownloadInts()
	if ints[0] != 7 || ints[1] != 8 {
		t.Errorf("int round trip = %v", ints)
	}
	dst := make([]Word, 5)
	d.DownloadInto(dst)
	if dst[4] != 5 {
		t.Errorf("DownloadInto = %v", dst)
	}
}

func TestSessionReuseAcrossRuns(t *testing.T) {
	// Two identical algorithm runs on one session, separated by Reset,
	// must produce identical results and identical charged stats; Close
	// then releases everything but leaves the session usable.
	s := NewSession(QRQW, 1<<14, WithSeed(11))
	p1, err := s.RandomPermutation(256)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()
	s.Reset()
	p2, err := s.RandomPermutation(256)
	if err != nil {
		t.Fatal(err)
	}
	if st2 := s.Stats(); st1 != st2 {
		t.Fatalf("reused session stats %v, want %v", st2, st1)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("reused session produced a different permutation")
		}
	}
	s.Close()
	if s.Machine().MemWords() != 0 {
		t.Error("Close did not release memory")
	}
	p3, err := s.RandomPermutation(256)
	if err != nil || !perm.IsPermutation(p3) {
		t.Fatalf("post-Close run failed: %v", err)
	}
}
