// Package analysis is a self-contained static-analysis framework modeled
// on golang.org/x/tools/go/analysis. The repository vendors no external
// modules, so the x/tools framework is unavailable; this package provides
// the same Analyzer/Pass/Diagnostic shape over the standard library's
// go/ast and go/types, which keeps the individual checkers (determinism,
// hotpath, ctxhygiene, errwrap) mechanical to port onto x/tools later.
//
// Analyzers receive one fully type-checked package per Pass and report
// position-tagged diagnostics. Loading (from `go list -export` in
// standalone mode, or from a go vet unit-check config in -vettool mode)
// lives in the sibling load and unitchecker packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one named check. Run is invoked once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and vet JSON output.
	// It must be a valid Go identifier (the go command requires this for
	// vettool analyzers).
	Name string
	// Doc is a one-paragraph description, shown by bmlint -help.
	Doc string
	// Run executes the check against one package and reports diagnostics
	// through pass.Report. The returned value is unused today (x/tools
	// uses it for inter-analyzer facts) but kept for API parity.
	Run func(pass *Pass) (interface{}, error)
}

// Pass holds the inputs to one analyzer run on one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver sets it.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Annotation names used across the suite. Annotations are ordinary line
// comments of the form //bmlint:<name>, attached either to a function
// declaration (doc comment or a comment line directly above) or to the
// offending line itself.
const (
	// AnnotHotpath marks a function as a zero-allocation hot-path root:
	// the hotpath analyzer checks it and everything statically reachable
	// from it inside the same package.
	AnnotHotpath = "bmlint:hotpath"
	// AnnotWallclock marks a function as a sanctioned wall-clock
	// telemetry seam: time.Now/time.Since are allowed inside it, and
	// calls to it from simulator code are allowed at call sites that
	// carry the same annotation.
	AnnotWallclock = "bmlint:wallclock"
	// AnnotAllowPrefix + "<check>" suppresses one diagnostic category on
	// the annotated line, e.g. //bmlint:allow alloc.
	AnnotAllowPrefix = "bmlint:allow "
	// AnnotOrderOK suppresses the map-iteration-order check on a range
	// statement whose output genuinely does not depend on order.
	AnnotOrderOK = "bmlint:orderok"
	// AnnotReset opts a type into the resetcomplete field-coverage check
	// regardless of package (simulator-package types with a Reset method
	// are checked automatically).
	AnnotReset = "bmlint:reset"
	// AnnotResetConst marks a struct field as construction-time geometry
	// (or otherwise managed outside Reset): resetcomplete does not require
	// Reset to assign it.
	AnnotResetConst = "bmlint:resetconst"
	// AnnotNoSnapshot marks a struct field as deliberately excluded from
	// the snapshot codec (reconstructed geometry, shared tables, transient
	// scratch): snapshotcomplete does not require the encode/decode pair to
	// cover it.
	AnnotNoSnapshot = "bmlint:nosnapshot"
)

// FuncAnnotated reports whether fn carries the //bmlint:<name> annotation
// in its doc comment or in any comment group ending on the line directly
// above the declaration.
func FuncAnnotated(pass *Pass, file *ast.File, fn *ast.FuncDecl, name string) bool {
	if commentGroupHas(fn.Doc, name) {
		return true
	}
	// A detached comment immediately above the declaration (separated
	// from it so it does not become the doc comment) still counts.
	declLine := pass.Fset.Position(fn.Pos()).Line
	for _, cg := range file.Comments {
		end := pass.Fset.Position(cg.End()).Line
		if end == declLine-1 && commentGroupHas(cg, name) {
			return true
		}
	}
	return false
}

// LineAnnotated reports whether the source line holding pos (or the line
// directly above it) carries the //bmlint:<name> annotation.
func LineAnnotated(pass *Pass, file *ast.File, pos token.Pos, name string) bool {
	line := pass.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := pass.Fset.Position(c.Pos()).Line
			if (cl == line || cl == line-1) && commentHas(c, name) {
				return true
			}
		}
	}
	return false
}

func commentGroupHas(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if commentHas(c, name) {
			return true
		}
	}
	return false
}

func commentHas(c *ast.Comment, name string) bool {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "bmlint:") {
		return false
	}
	if strings.HasSuffix(name, " ") {
		// Prefix-style annotation (bmlint:allow <what>): the remainder is
		// matched by the caller via AllowWhat.
		return strings.HasPrefix(text, name)
	}
	// Exact annotation, optionally followed by prose ("bmlint:wallclock —
	// phase telemetry only").
	return text == name || strings.HasPrefix(text, name+" ")
}

// commentHasToken reports whether the comment carries the annotation as a
// whitespace-separated token, so several annotations can share one trailing
// comment ("//bmlint:resetconst //bmlint:nosnapshot — derived geometry").
func commentHasToken(c *ast.Comment, name string) bool {
	for _, tok := range strings.Fields(strings.TrimPrefix(c.Text, "//")) {
		if strings.TrimPrefix(tok, "//") == name {
			return true
		}
	}
	return false
}

// FieldAnnotated reports whether the struct field declaration carries the
// //bmlint:<name> annotation in its doc comment or its trailing line
// comment. A field line may stack several annotations in one comment as
// whitespace-separated //bmlint:<name> tokens.
func FieldAnnotated(f *ast.Field, name string) bool {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if commentHas(c, name) || commentHasToken(c, name) {
				return true
			}
		}
	}
	return false
}

// TypeAnnotated reports whether the type declaration carries the
// //bmlint:<name> annotation: on the enclosing GenDecl's doc comment, the
// TypeSpec's own doc, or its trailing comment.
func TypeAnnotated(decl *ast.GenDecl, spec *ast.TypeSpec, name string) bool {
	return commentGroupHas(decl.Doc, name) ||
		commentGroupHas(spec.Doc, name) ||
		commentGroupHas(spec.Comment, name)
}

// Allowed reports whether the line holding pos carries a
// //bmlint:allow <what> suppression for the given category.
func Allowed(pass *Pass, file *ast.File, pos token.Pos, what string) bool {
	return LineAnnotated(pass, file, pos, AnnotAllowPrefix+what)
}

// TestFile reports whether file is a _test.go file. The bmlint invariants
// target production simulator code; tests may use wall clock, allocate on
// hot paths and hold contexts in fixture structs.
func TestFile(pass *Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.File(file.Pos()).Name(), "_test.go")
}
