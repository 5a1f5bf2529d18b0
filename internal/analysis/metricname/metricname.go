// Package metricname lints Prometheus names and exposition text.
//
// Invariant guarded: both daemons render /metrics through one writer,
// obs.Metrics, which checks each family's kind suffix (_total, and
// _seconds or _bytes for histograms) when the family is registered.
// What registration cannot see is which process mints a name. Each
// scope owns one namespace — the backend mints scserved_* series, the
// router scroute_* — and a series minted in the wrong package would
// collide (or silently vanish) when both processes are scraped side by
// side. In internal/serve, internal/route and internal/obs the
// analyzer checks every string literal: namespace tokens must match
// <ns>_[a-z_]+ and belong to the package's own namespace, and the
// _bucket/_sum/_count series of a histogram appear only in
// internal/obs, which renders them. Everywhere outside internal/obs a
// literal holding an exposition header is reported: a page written by
// hand forks the format and skips the registration checks.
package metricname

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

var scopes = []string{
	"internal/serve",
	"internal/obs",
	"internal/route",
}

var (
	tokenRx  = regexp.MustCompile(`(?:scserved|scroute)_[A-Za-z0-9_]+`)
	nameRx   = regexp.MustCompile(`^(?:scserved|scroute)_[a-z_]+$`)
	headerRx = regexp.MustCompile(`#\s+(?:HELP|TYPE)\s`)
)

var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "require Prometheus names in internal/serve, internal/obs, and " +
		"internal/route to match their package's namespace (scserved_ or " +
		"scroute_), and exposition headers to be written only by internal/obs",
	Run: run,
}

// bannedNamespace returns the namespace prefix the package must NOT
// mint, "" when both are fine. internal/obs is shared plumbing, so it
// may reference either; the backend and router each own one.
func bannedNamespace(pass *analysis.Pass) string {
	switch {
	case analysis.InScope(pass.Pkg, "internal/route"):
		return "scserved_"
	case analysis.InScope(pass.Pkg, "internal/serve"):
		return "scroute_"
	}
	return ""
}

func run(pass *analysis.Pass) error {
	inObs := analysis.InScope(pass.Pkg, "internal/obs")
	checkNames := analysis.InScope(pass.Pkg, scopes...)
	banned := bannedNamespace(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			text, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if !inObs && headerRx.MatchString(text) {
				pass.Reportf(lit.Pos(),
					"exposition header written outside internal/obs; declare the family on an obs.Metrics set")
			}
			if checkNames {
				checkNamesIn(pass, lit, text, inObs, banned)
			}
			return true
		})
	}
	return nil
}

func checkNamesIn(pass *analysis.Pass, lit *ast.BasicLit, text string, inObs bool, banned string) {
	for _, tok := range tokenRx.FindAllString(text, -1) {
		if !nameRx.MatchString(tok) {
			pass.Reportf(lit.Pos(),
				"metric name %q does not match (scserved|scroute)_[a-z_]+ (lowercase letters and underscores only)", tok)
			continue
		}
		if banned != "" && strings.HasPrefix(tok, banned) {
			pass.Reportf(lit.Pos(),
				"metric name %q is outside this package's namespace (the backend mints scserved_*, the router scroute_*)", tok)
			continue
		}
		if !inObs && histogramSeriesSuffix(tok) {
			pass.Reportf(lit.Pos(),
				"hand-rolled histogram series %q; the _bucket/_sum/_count lines are rendered by obs.Metrics", tok)
		}
	}
}

// histogramSeriesSuffix reports whether the name is one of the derived
// series a Prometheus histogram exposes.
func histogramSeriesSuffix(name string) bool {
	return strings.HasSuffix(name, "_bucket") ||
		strings.HasSuffix(name, "_sum") ||
		strings.HasSuffix(name, "_count")
}
