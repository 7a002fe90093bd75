package dynamic

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
)

// minimalDef returns a small valid definition document; mutate fields
// via the editor before parsing.
func minimalDef(edit func(m map[string]any)) []byte {
	m := map[string]any{
		"name":   "mini",
		"sizes":  []int{64},
		"phases": []map[string]any{{"algorithm": "permutation.random"}},
	}
	if edit != nil {
		edit(m)
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b
}

func mustParse(t *testing.T, raw []byte) Definition {
	t.Helper()
	def, derr := Parse(raw, DefaultLimits())
	if derr != nil {
		t.Fatalf("Parse: %v", derr)
	}
	return def
}

func readTestdata(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "definitions", "table1-dynamic.json"))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRoundTrip is the canonicalization fixed-point property: parsing a
// definition's canonical bytes reproduces the definition exactly — same
// struct, same canonical bytes, same content id.
func TestRoundTrip(t *testing.T) {
	docs := [][]byte{
		readTestdata(t),
		minimalDef(nil),
		minimalDef(func(m map[string]any) {
			m["models"] = []string{"qrqw", "crcw"}
			m["seeds"] = []uint64{3, 9}
			m["arrays"] = []map[string]any{{"name": "u", "fill": "uniform", "params": map[string]int64{"max": 4096}}}
			m["phases"] = []map[string]any{
				{"algorithm": "sort.distributive", "array": "u"},
				{"algorithm": "compaction.linear", "params": map[string]int64{"k_div": 16}},
			}
		}),
	}
	for i, raw := range docs {
		def := mustParse(t, raw)
		canon := Canonical(def)
		again := mustParse(t, canon)
		if !reflect.DeepEqual(def, again) {
			t.Errorf("doc %d: Parse(Canonical(def)) != def:\n%+v\n%+v", i, def, again)
		}
		if got := Canonical(again); string(got) != string(canon) {
			t.Errorf("doc %d: canonical bytes not a fixed point:\n%s\n%s", i, canon, got)
		}
		if ID(def) != ID(again) {
			t.Errorf("doc %d: id changed across round trip", i)
		}
	}
}

// TestIDInsensitiveToSpelling pins that formatting and spelling
// variants that canonicalize identically share one content id, while a
// semantic change (the size grid) gets a fresh one.
func TestIDInsensitiveToSpelling(t *testing.T) {
	base := mustParse(t, minimalDef(func(m map[string]any) {
		m["models"] = []string{"qrqw"}
		m["seeds"] = []uint64{1}
	}))
	variants := [][]byte{
		minimalDef(nil), // models and seeds omitted: defaults are QRQW / [1]
		minimalDef(func(m map[string]any) { m["models"] = []string{"QRQW"} }),
		[]byte("{\n  \"name\": \"mini\",\n  \"sizes\": [64],\n  \"phases\": [{\"algorithm\": \"permutation.random\"}]\n}\n"),
	}
	for i, raw := range variants {
		if got := ID(mustParse(t, raw)); got != ID(base) {
			t.Errorf("variant %d: id %s, want %s", i, got, ID(base))
		}
	}
	other := mustParse(t, minimalDef(func(m map[string]any) { m["sizes"] = []int{128} }))
	if ID(other) == ID(base) {
		t.Error("different size grid must change the content id")
	}
}

// TestParseErrors pins the exact code, message, and path of each
// documented malformed-definition case — these strings are API.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name      string
		raw       []byte
		code      string
		path, msg string
	}{
		{
			name: "unknown field",
			raw:  []byte(`{"name":"mini","sizes":[64],"phaces":[{"algorithm":"permutation.random"}]}`),
			code: CodeInvalidBody,
			msg:  `bad definition: json: unknown field "phaces"`,
		},
		{
			name: "trailing data",
			raw:  append(minimalDef(nil), []byte(" {}")...),
			code: CodeInvalidBody,
			msg:  "bad definition: trailing data after the document",
		},
		{
			name: "missing name",
			raw:  []byte(`{"sizes":[64],"phases":[{"algorithm":"permutation.random"}]}`),
			code: CodeInvalidField, path: "name",
			msg: "name is required",
		},
		{
			name: "reserved prefix",
			raw:  minimalDef(func(m map[string]any) { m["name"] = "x-deadbeef0000" }),
			code: CodeInvalidField, path: "name",
			msg: `name "x-deadbeef0000" is reserved: the x- prefix names stored definitions by content id`,
		},
		{
			name: "missing sizes",
			raw:  []byte(`{"name":"mini","phases":[{"algorithm":"permutation.random"}]}`),
			code: CodeInvalidField, path: "sizes",
			msg: "sizes is required: the definition's size grid",
		},
		{
			name: "oversized size",
			raw:  minimalDef(func(m map[string]any) { m["sizes"] = []int{1 << 21} }),
			code: CodeInvalidField, path: "sizes[0]",
			msg: fmt.Sprintf("size %d out of range [1, %d]", 1<<21, 1<<20),
		},
		{
			name: "unknown model",
			raw:  minimalDef(func(m map[string]any) { m["models"] = []string{"simd"} }),
			code: CodeInvalidField, path: "models[0]",
			msg: `unknown model "simd"`,
		},
		{
			name: "unknown algorithm",
			raw:  minimalDef(func(m map[string]any) { m["phases"] = []map[string]any{{"algorithm": "quantum.sort"}} }),
			code: CodeInvalidField, path: "phases[0].algorithm",
			msg: `unknown algorithm "quantum.sort" (known: ` + knownAlgorithms() + ")",
		},
		{
			name: "undeclared array",
			raw: minimalDef(func(m map[string]any) {
				m["phases"] = []map[string]any{{"algorithm": "sort.distributive", "array": "ghost"}}
			}),
			code: CodeInvalidField, path: "phases[0].array",
			msg: `phase references undeclared array "ghost"`,
		},
		{
			name: "unreferenced array",
			raw: minimalDef(func(m map[string]any) {
				m["arrays"] = []map[string]any{{"name": "u", "fill": "uniform"}}
			}),
			code: CodeInvalidField, path: "arrays[0].name",
			msg: `array "u" is declared but never referenced by a phase`,
		},
		{
			name: "lookup before build",
			raw: minimalDef(func(m map[string]any) {
				m["arrays"] = []map[string]any{{"name": "k", "fill": "distinct"}}
				m["phases"] = []map[string]any{{"algorithm": "hash.lookup", "array": "k"}}
			}),
			code: CodeInvalidField, path: "phases[0].array",
			msg: `hash.lookup on array "k" needs an earlier hash.build phase on the same array`,
		},
		{
			name: "mixed pinning",
			raw: minimalDef(func(m map[string]any) {
				m["phases"] = []map[string]any{
					{"algorithm": "permutation.random", "model": "qrqw"},
					{"algorithm": "loadbalance"},
				}
			}),
			code: CodeInvalidField, path: "phases[1].model",
			msg: `phase "loadbalance" pins no model but other phases do; pin every phase or none`,
		},
		{
			name: "unknown parameter",
			raw: minimalDef(func(m map[string]any) {
				m["phases"] = []map[string]any{{"algorithm": "loadbalance", "params": map[string]int64{"warp": 2}}}
			}),
			code: CodeInvalidField, path: "phases[0].params.warp",
			msg: `unknown parameter "warp" for algorithm "loadbalance" (known: max_load, second_load)`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, derr := Parse(c.raw, DefaultLimits())
			if derr == nil {
				t.Fatal("Parse accepted a malformed definition")
			}
			if derr.Code != c.code || derr.Path != c.path || derr.Message != c.msg {
				t.Errorf("got {code:%q path:%q msg:%q}\nwant {code:%q path:%q msg:%q}",
					derr.Code, derr.Path, derr.Message, c.code, c.path, c.msg)
			}
		})
	}
}

// TestStoreSemantics pins the store contract: content-addressed
// idempotent Put, name conflicts on different content, capacity
// refusal, and delete by id or name.
func TestStoreSemantics(t *testing.T) {
	st := NewStore(2)
	def := mustParse(t, minimalDef(nil))

	stored, created, derr := st.Put(def)
	if derr != nil || !created {
		t.Fatalf("first Put: created=%v err=%v", created, derr)
	}
	if stored.ID != ID(def) {
		t.Fatalf("stored id %s, want %s", stored.ID, ID(def))
	}
	again, created, derr := st.Put(def)
	if derr != nil || created || again.ID != stored.ID {
		t.Fatalf("re-Put: created=%v id=%s err=%v", created, again.ID, derr)
	}
	if st.Len() != 1 {
		t.Fatalf("Len=%d after idempotent re-Put", st.Len())
	}

	changed := mustParse(t, minimalDef(func(m map[string]any) { m["sizes"] = []int{128} }))
	if _, _, derr := st.Put(changed); derr == nil || derr.Code != CodeNameConflict || derr.Path != "name" {
		t.Fatalf("same name, different content: %v", derr)
	}

	other := mustParse(t, minimalDef(func(m map[string]any) { m["name"] = "other" }))
	if _, _, derr := st.Put(other); derr != nil {
		t.Fatalf("second definition refused: %v", derr)
	}
	third := mustParse(t, minimalDef(func(m map[string]any) { m["name"] = "third" }))
	if _, _, derr := st.Put(third); derr == nil || derr.Code != CodeStoreFull {
		t.Fatalf("store over capacity: %v", derr)
	}

	if _, ok := st.Get("mini"); !ok {
		t.Fatal("Get by name failed")
	}
	if _, ok := st.Get(stored.ID); !ok {
		t.Fatal("Get by content id failed")
	}
	if _, _, ok := st.Resolve("mini"); !ok {
		t.Fatal("Resolve by name failed")
	}
	if del, ok := st.Delete("mini"); !ok || del.ID != stored.ID {
		t.Fatal("Delete by name failed")
	}
	if _, ok := st.Get(stored.ID); ok {
		t.Fatal("deleted definition still resolvable by id")
	}
	if _, _, derr := st.Put(third); derr != nil {
		t.Fatalf("Put after Delete should have capacity again: %v", derr)
	}
}

// TestStoreDescribe pins the listing shape of a stored definition —
// the fields GET /v1/experiments serves for dynamic entries.
func TestStoreDescribe(t *testing.T) {
	st := NewStore(0)
	def := mustParse(t, readTestdata(t))
	if _, _, derr := st.Put(def); derr != nil {
		t.Fatal(derr)
	}
	infos := st.Describe()
	if len(infos) != 1 {
		t.Fatalf("Describe returned %d entries", len(infos))
	}
	in := infos[0]
	if in.Name != "table1-dynamic" || in.ID != ID(def) || in.Origin != "dynamic" {
		t.Errorf("identity fields wrong: %+v", in)
	}
	if in.Cells != 1 {
		t.Errorf("Cells=%d, want 1 (one size x one seed)", in.Cells)
	}
	if !reflect.DeepEqual(in.Models, []string{"QRQW", "EREW"}) {
		t.Errorf("Models=%v, want first-use order [QRQW EREW]", in.Models)
	}
	if len(in.Phases) != len(def.Phases) || in.Phases[0] != "perm.qrqw" {
		t.Errorf("Phases=%v", in.Phases)
	}
}

// TestCompiledCellsIntersectGrid pins that a compiled experiment's
// cells are the intersection of the request with the declared grid —
// a disjoint filter honestly yields zero cells.
func TestCompiledCellsIntersectGrid(t *testing.T) {
	def := mustParse(t, minimalDef(func(m map[string]any) {
		m["sizes"] = []int{64, 256}
		m["seeds"] = []uint64{1, 2}
	}))
	e := Compile(def)
	if got := len(e.Cells([]int{64, 256})); got != 4 {
		t.Errorf("full grid: %d cells, want 4", got)
	}
	if got := len(e.Cells([]int{256})); got != 2 {
		t.Errorf("filtered grid: %d cells, want 2", got)
	}
	if got := len(e.Cells([]int{999})); got != 0 {
		t.Errorf("disjoint filter: %d cells, want 0", got)
	}
}

// TestCompiledDeterminism is the determinism contract for dynamic
// experiments: the table1 clone's results and rendered artifact are
// byte-identical at -parallel 1 and 8.
func TestCompiledDeterminism(t *testing.T) {
	def := mustParse(t, readTestdata(t))
	e := Compile(def)
	run := func(parallel int) (spec.Result, string) {
		res := (&spec.Runner{Parallel: parallel}).Run(e, def.Sizes, 7)
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return res, e.Render(res)
	}
	seqRes, seq := run(1)
	parRes, par := run(8)
	if seq != par {
		t.Fatalf("artifact not deterministic across parallelism:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", seq, par)
	}
	if !reflect.DeepEqual(stripExec(seqRes), stripExec(parRes)) {
		t.Fatal("charged results differ across parallelism")
	}
	for _, want := range []string{"perm.qrqw", "balance.erew", "x-"} {
		if !strings.Contains(seq, want) {
			t.Errorf("artifact missing %q:\n%s", want, seq)
		}
	}
}

// stripExec keeps only the program-determined part of each cell's
// engine counters, the two descriptor counts MarshalJSON emits. The
// rest (dispatch routes, cursor steals, cutoff moves) follows the host
// schedule at any gang width above one.
func stripExec(res spec.Result) spec.Result {
	res.Cells = slices.Clone(res.Cells)
	for i, c := range res.Cells {
		res.Cells[i].Exec = machine.ExecStats{
			BulkDescriptors: c.Exec.BulkDescriptors,
			BulkExpanded:    c.Exec.BulkExpanded,
		}
	}
	return res
}
