package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// The injection-regression tests re-introduce the repo's historical
// determinism bugs into copies of the REAL sources — not simplified
// fixtures — and assert the suite reports each at the expected
// file:line. They are the proof that detlint would have caught the
// bugs when they shipped:
//
//   - the PR 5 LabelProp community count (each rank reported the size
//     of its rank-local label map),
//   - the pre-ordered-reduction PageRank norm (a captured += inside a
//     par worker),
//   - removal of the PR 9 boundary-classification race fix (a
//     nil-check guard calling the sync.Once-protected initializer
//     directly).
//
// Each test also runs the analyzer over the pristine copy first: the
// copy must be clean, so the asserted diagnostic is caused by the
// injected edit alone.

// copyPackage copies every non-test .go file of srcDir into a fresh
// directory under testdata/ (inside the module, so LoadDir's
// module-aware importer resolves the repro/... imports; testdata is
// invisible to the go tool, so a stray copy can never join the build).
func copyPackage(t *testing.T, srcDir string) string {
	t.Helper()
	dst, err := os.MkdirTemp("testdata", "inject-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.RemoveAll(dst); err != nil {
			t.Error(err)
		}
	})
	ents, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// runInjection checks both directions: the pristine copy of srcDir is
// clean under the analyzer, and after replacing oldCode with newCode
// in file, the analyzer reports a diagnostic matching wantMsg exactly
// on the line containing marker.
func runInjection(t *testing.T, a *lint.Analyzer, srcDir, file, oldCode, newCode, marker, wantMsg string) {
	t.Helper()
	if testing.Short() {
		t.Skip("injection tests type-check full packages twice")
	}
	dir := copyPackage(t, srcDir)

	pristine, err := lint.LoadDir(dir)
	if err != nil {
		t.Fatalf("load pristine copy: %v", err)
	}
	for _, d := range lint.RunAnalyzers(pristine, []*lint.Analyzer{a}) {
		t.Errorf("pristine copy of %s not clean: %s", srcDir, d)
	}
	if t.Failed() {
		t.FailNow()
	}

	path := filepath.Join(dir, file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), oldCode) {
		t.Fatalf("%s no longer contains the injection site %q — update the injection test to the current source", file, oldCode)
	}
	mutated := strings.Replace(string(src), oldCode, newCode, 1)
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	wantLine := 0
	for i, l := range strings.Split(mutated, "\n") {
		if strings.Contains(l, marker) {
			wantLine = i + 1
			break
		}
	}
	if wantLine == 0 {
		t.Fatalf("marker %q not found in mutated %s", marker, file)
	}

	pkg, err := lint.LoadDir(dir)
	if err != nil {
		t.Fatalf("load mutated copy: %v", err)
	}
	diags := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, string(filepath.Separator)+file) &&
			d.Pos.Line == wantLine && strings.Contains(d.Message, wantMsg) {
			return
		}
	}
	t.Errorf("injected bug not reported at %s:%d (want message containing %q); got %d finding(s):", file, wantLine, wantMsg, len(diags))
	for _, d := range diags {
		t.Errorf("  %s", d)
	}
}

// TestInjectLabelPropRankLocalCount re-introduces the PR 5 LabelProp
// bug: the community count taken as the size of the rank-local label
// map instead of the hash-partitioned global distinct count, so every
// rank reported a different number.
func TestInjectLabelPropRankLocalCount(t *testing.T) {
	runInjection(t, lint.MapOrder,
		filepath.Join("..", "analytics"), "analytics.go",
		"\tcomms := globalDistinct(g, labels[:g.NLocal])\n",
		"\tdistinct := make(map[int64]struct{}, 64)\n"+
			"\tfor _, l := range labels[:g.NLocal] {\n"+
			"\t\tdistinct[l] = struct{}{}\n"+
			"\t}\n"+
			"\tcomms := int64(len(distinct))\n",
		"Value: float64(comms)",
		"rank-local map count flows into report field")
}

// TestInjectUnorderedParFloatSum replaces the PageRank norm's
// chunk-ordered reduction with the naive captured accumulator it
// replaced: the fold order follows thread scheduling, so the norm's
// bits differed across thread counts.
func TestInjectUnorderedParFloatSum(t *testing.T) {
	runInjection(t, lint.FloatFold,
		filepath.Join("..", "analytics"), "analytics.go",
		"\tnormL, _ := par.SumFloat64Ordered(0, g.NLocal, e.threads, nil, func(lo, hi int) float64 {\n"+
			"\t\tvar s float64\n"+
			"\t\tfor i := lo; i < hi; i++ {\n"+
			"\t\t\ts += normSrc[i]\n"+
			"\t\t}\n"+
			"\t\treturn s\n"+
			"\t})\n",
		"\tvar normL float64\n"+
			"\tpar.ForChunk(0, g.NLocal, e.threads, func(lo, hi, tid int) {\n"+
			"\t\tfor i := lo; i < hi; i++ {\n"+
			"\t\t\tnormL += normSrc[i]\n"+
			"\t\t}\n"+
			"\t})\n",
		"normL += normSrc[i]",
		"float accumulation into captured normL inside a par.ForChunk worker")
}

// TestInjectOnceBypass removes the PR 9 race fix from one accessor: a
// nil-check guard calling classifyBoundary directly races with the
// sync.Once the other accessors still go through.
func TestInjectOnceBypass(t *testing.T) {
	runInjection(t, lint.FloatFold,
		filepath.Join("..", "dgraph"), "dgraph.go",
		"\tg.boundaryOnce.Do(g.classifyBoundary)\n\treturn g.boundaryMark[v]\n",
		"\tif g.boundaryMark == nil {\n"+
			"\t\tg.classifyBoundary()\n"+
			"\t}\n"+
			"\treturn g.boundaryMark[v]\n",
		"g.classifyBoundary()",
		"bypassing the Once races with the memoized initialization")
}
