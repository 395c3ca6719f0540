// Package lint is the project's static-analysis suite: a set of
// analyzers that encode the exchange engine's unwritten contracts —
// the rules whose violations have historically only surfaced at
// runtime, sometimes only under -race at pipeline depth 4 — as
// compile-time checks with file:line diagnostics. The analyzers are
// documented contract-by-contract in docs/INVARIANTS.md:
//
//   - collectivesym: collectives must be reachable on every rank
//     (the conditional-collective deadlock trap).
//   - arenaescape: decode-arena- and Recv64-backed slices must not
//     escape their aliasing window.
//   - beginflush: every Begin* on an exchanger (the dgraph round
//     interface or either engine) needs a matching Flush* (or Close),
//     bounded by the pipeline depth.
//   - exlifecycle: every constructed exchanger (and every graph
//     vending one) must reach Close() on all paths.
//   - hotpathalloc: functions annotated //repro:hotpath must contain
//     no heap-allocating constructs.
//   - errcheck: a curated unchecked-error check for the artifact and
//     file-handling paths.
//   - maporder: map-iteration order must not reach wire frames, float
//     folds, or report fields (the rank-local-count bug shape).
//   - floatfold: float sums fold in a fixed order — par workers use
//     chunk-ordered reductions, receive loops fold in rank order, and
//     sync.Once-guarded initializers are never called directly.
//   - wallclock: no ambient time.Now/math/rand on the
//     //repro:deterministic surface outside //repro:timing decls.
//   - seedflow: RNG constructor seeds trace to a parameter, config
//     field, or constant — never to the clock or a mutable global.
//
// The detlint four and collectivesym/hotpathalloc reason
// interprocedurally through a per-package call graph (helper depth 4),
// so moving a violation into a helper does not hide it.
//
// The suite is intentionally self-contained on the standard library's
// go/ast + go/types (no golang.org/x/tools dependency): packages are
// enumerated with `go list`, parsed with go/parser, and type-checked
// with a module-aware importer that falls back to the source importer
// for the standard library. cmd/reprolint is the multichecker driver;
// fixtures under testdata/ are exercised analysistest-style by the
// package tests.
//
// Findings can be suppressed with an explicit, reasoned directive on
// the preceding (or same) line:
//
//	//lint:ignore analyzername reason for the exception
//
// A bare ignore — missing the analyzer name or the reason — is itself
// reported as an error: exceptions must say why they are safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in lint:ignore
	// directives.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run reports the analyzer's findings for one package via
	// pass.Reportf.
	Run func(pass *Pass)
}

// All is the suite cmd/reprolint runs, in reporting order. The first
// six enforce the exchange engine's structural contracts; the detlint
// family (maporder, floatfold, wallclock, seedflow) enforces the
// determinism contract — results bit-identical across ranks, threads,
// substrates, and runs at fixed seeds — at compile time.
var All = []*Analyzer{
	CollectiveSym,
	ArenaEscape,
	BeginFlush,
	ExLifecycle,
	HotPathAlloc,
	ErrCheck,
	MapOrder,
	FloatFold,
	WallClock,
	SeedFlow,
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the finding the way compilers do, so editors can jump
// to it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Graph is the package's call graph — the interprocedural layer:
	// analyzers use it to see collectives, allocations, wall-clock
	// reads, and shared-state writes through bounded-depth chains of
	// same-package helper calls, closing the "wrap it in a function"
	// evasion the intra-procedural checks had.
	Graph *CallGraph

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool
	reason    string
	bare      bool // missing analyzer list or reason
	used      bool
}

// parseIgnores collects the lint:ignore directives of a file, keyed by
// the line they annotate (their own line — a directive suppresses
// findings on its line and on the following line).
func parseIgnores(fset *token.FileSet, file *ast.File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
			if !ok {
				continue
			}
			d := &ignoreDirective{pos: fset.Position(c.Pos())}
			fields := strings.Fields(text)
			if len(fields) < 2 {
				d.bare = true
			} else {
				d.analyzers = map[string]bool{}
				for _, name := range strings.Split(fields[0], ",") {
					d.analyzers[name] = true
				}
				d.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, d)
		}
	}
	return out
}

// RunAnalyzers runs every analyzer in analyzers over pkg and returns
// the surviving findings: diagnostics suppressed by a reasoned
// //lint:ignore directive are dropped, bare directives are reported as
// findings of their own, and the rest are sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	graph := buildCallGraph(pkg)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Graph:    graph,
			diags:    &diags,
		}
		a.Run(pass)
	}

	var ignores []*ignoreDirective
	for _, f := range pkg.Files {
		ignores = append(ignores, parseIgnores(pkg.Fset, f)...)
	}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, ig := range ignores {
			if ig.bare || !ig.analyzers[d.Analyzer] || ig.pos.Filename != d.Pos.Filename {
				continue
			}
			if ig.pos.Line == d.Pos.Line || ig.pos.Line == d.Pos.Line-1 {
				ig.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept
	for _, ig := range ignores {
		if ig.bare {
			diags = append(diags, Diagnostic{
				Pos:      ig.pos,
				Analyzer: "reprolint",
				Message:  "bare lint:ignore: write //lint:ignore <analyzer> <reason> — exceptions must name the check and say why they are safe",
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}
