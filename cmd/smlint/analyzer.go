// smlint is the repo-native static-analysis driver for the smart meter
// benchmark. It enforces, by construction, the properties the paper's
// numbers depend on: deterministic randomness, epsilon-audited
// floating-point comparisons, race-free goroutine fan-out, no silently
// dropped errors, checked Sync/Close on written files, engine layering,
// race-free phase timing and cancellable worker loops. Every analyzer is
// a single syntactic pass over one type-checked package; resource
// lifecycles and allocation-free kernels are held by run-time tests
// instead (leak accounting in the cursor conformance suite,
// testing.AllocsPerRun in the kernel packages).
//
// It is built only on the standard library (go/ast, go/parser,
// go/types) — no golang.org/x/tools dependency — so it runs anywhere
// the Go toolchain does.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// analyzers is the registry, in reporting order.
var analyzers = []*Analyzer{
	floatcmpAnalyzer,
	globalrandAnalyzer,
	goroutinecaptureAnalyzer,
	errdropAnalyzer,
	synccloseAnalyzer,
	enginelayeringAnalyzer,
	timenowAnalyzer,
	ctxpollAnalyzer,
}

func knownAnalyzer(name string) bool {
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

// runAnalyzers applies every analyzer to the package, honors
// //smlint:ignore directives and returns the findings sorted by
// position.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			analyzer: a.Name,
			diags:    &diags,
		})
	}
	diags = applySuppressions(fset, files, diags)
	sortDiags(diags)
	return diags
}

// sortDiags orders findings by file, line, column, analyzer — the
// deterministic order the driver also applies globally across packages
// so output and CI diffs are stable.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// applySuppressions drops diagnostics covered by a
// `//smlint:ignore <analyzer> <reason>` comment on the same line or the
// line above, and reports malformed directives (unknown analyzer,
// missing reason) as findings of their own — a suppression without a
// written reason is not a suppression.
func applySuppressions(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	covered := map[string]map[int]map[string]bool{} // file -> line -> analyzer
	var out []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//smlint:ignore")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				malformed := func(format string, args ...any) {
					out = append(out, Diagnostic{
						Pos:      pos,
						Analyzer: "ignore",
						Message:  fmt.Sprintf(format, args...),
					})
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					malformed("smlint:ignore needs an analyzer name and a reason: //smlint:ignore <analyzer> <reason>")
					continue
				}
				if !knownAnalyzer(fields[0]) {
					malformed("smlint:ignore names unknown analyzer %q", fields[0])
					continue
				}
				if len(fields) < 2 {
					malformed("smlint:ignore %s needs a reason explaining why the finding is acceptable", fields[0])
					continue
				}
				if covered[pos.Filename] == nil {
					covered[pos.Filename] = map[int]map[string]bool{}
				}
				if covered[pos.Filename][pos.Line] == nil {
					covered[pos.Filename][pos.Line] = map[string]bool{}
				}
				covered[pos.Filename][pos.Line][fields[0]] = true
			}
		}
	}
	for _, d := range diags {
		lines := covered[d.Pos.Filename]
		if lines[d.Pos.Line][d.Analyzer] || lines[d.Pos.Line-1][d.Analyzer] {
			continue
		}
		out = append(out, d)
	}
	return out
}
