// Package errwrap implements the bmlint analyzer that keeps error chains
// intact at package boundaries: in the engine and service packages, a
// fmt.Errorf that formats an error-typed argument must use %w so callers
// can errors.Is/errors.As through the wrap. Formatting an error with %v
// or %s flattens it to text — the service layer's context.Canceled
// classification (sweeps ending "canceled" vs "failed") silently breaks
// when a wrap in the chain loses the sentinel.
package errwrap

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"bimodal/internal/analysis"
)

// Analyzer is the error-wrapping checker.
var Analyzer = &analysis.Analyzer{
	Name: "bmerrwrap",
	Doc:  "require %w when fmt.Errorf formats an error at package boundaries",
	Run:  run,
}

// boundaryPackages are the packages whose fmt.Errorf calls are checked.
var boundaryPackages = map[string]bool{
	"bimodal/internal/engine":  true,
	"bimodal/internal/service": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !boundaryPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	errType := types.Universe.Lookup("error").Type()
	for _, file := range pass.Files {
		if analysis.TestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
				return true
			}
			format, ok := constString(pass, call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				tv, ok := pass.TypesInfo.Types[arg]
				if !ok || tv.Type == nil {
					continue
				}
				if types.AssignableTo(tv.Type, errType) && !tv.IsNil() {
					pass.Reportf(arg.Pos(),
						"fmt.Errorf formats an error without %%w: callers lose "+
							"errors.Is/errors.As through this boundary")
					break
				}
			}
			return true
		})
	}
	return nil, nil
}

// constString evaluates e as a constant string.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
