package analysis_test

// TestDefaultScopes pins the production analyzer scopes around the serving
// layer (see the scope note on Default): the tracesink boundary is an
// allowlist of engine packages, so internal/serve — whose job is HTTP and
// JSON — must stay outside it, and in exchange the serve layer must never
// import the engine packages directly: it reaches the fabric only through
// the public memlp API.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/memlp/memlp/internal/analysis"
	"github.com/memlp/memlp/internal/analysis/analysistest"
)

// defaultAnalyzer digs a production-configured analyzer out of Default().
func defaultAnalyzer(t *testing.T, name string) *analysis.Analyzer {
	t.Helper()
	for _, a := range analysis.Default() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("Default() has no %s analyzer", name)
	return nil
}

// defaultTracesink digs the production tracesink analyzer out of Default().
func defaultTracesink(t *testing.T) *analysis.Analyzer {
	return defaultAnalyzer(t, "tracesink")
}

func TestDefaultScopesTracesinkCoversEngines(t *testing.T) {
	// The engine fixture must still be flagged by the production config —
	// the scope can only be relaxed deliberately, in this test's face.
	analysistest.Run(t, analysistest.TestData(), defaultTracesink(t),
		"example.com/tracesink/internal/core")
}

func TestDefaultScopesTracesinkExemptsServe(t *testing.T) {
	// The serve fixture imports every forbidden path (net/http,
	// encoding/json, os) and must come back clean: transport is exempt.
	analysistest.RunExpectClean(t, analysistest.TestData(), defaultTracesink(t),
		"example.com/tracesink/internal/serve")
}

// TestDefaultScopesDeterminism pins the production scopes of the D16
// determinism/concurrency analyzers: the fixtures live under example.com/...
// so a suffix pkgMatch against the production Pkgs lists is exactly what is
// exercised — if a package is dropped from a production scope, the matching
// fixture stops being flagged and this test fails.
func TestDefaultScopesDeterminism(t *testing.T) {
	flagged := []struct{ name, pkg string }{
		{"detorder", "example.com/detorder/internal/core"},
		// The tile reduction and the tile epochs live in internal/noc.
		{"detorder", "example.com/detorder/internal/noc"},
		{"wallclock", "example.com/wallclock/internal/engine"},
		{"spawnjoin", "example.com/spawnjoin/internal/serve"},
	}
	for _, f := range flagged {
		analysistest.Run(t, analysistest.TestData(), defaultAnalyzer(t, f.name), f.pkg)
	}
	// internal/experiments is deliberately outside every determinism scope:
	// benchmark harnesses may time themselves, iterate maps, and fire
	// goroutines without an audit trail.
	clean := map[string]string{
		"detorder":  "example.com/detorder/internal/experiments",
		"wallclock": "example.com/wallclock/internal/experiments",
		"spawnjoin": "example.com/spawnjoin/internal/experiments",
	}
	for name, pkg := range clean {
		analysistest.RunExpectClean(t, analysistest.TestData(), defaultAnalyzer(t, name), pkg)
	}
	// guardedby is annotation-driven and unconditional, like hotpath: any
	// package carrying //memlp:guardedby fields is checked.
	analysistest.Run(t, analysistest.TestData(), defaultAnalyzer(t, "guardedby"), "guardedbyfix")
}

// engineImports are the packages the serving layer may not touch: the
// tracesink-scoped engines plus the crossbar substrate they guard.
var engineImports = []string{
	"github.com/memlp/memlp/internal/cone",
	"github.com/memlp/memlp/internal/core",
	"github.com/memlp/memlp/internal/engine",
	"github.com/memlp/memlp/internal/pdip",
	"github.com/memlp/memlp/internal/simplex",
	"github.com/memlp/memlp/internal/crossbar",
}

func TestDefaultScopesServeImportBoundary(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"internal/serve", "cmd/memlpd"} {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(root, dir, e.Name())
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				for _, banned := range engineImports {
					if ip == banned {
						t.Errorf("%s/%s imports %s: the serving layer must use the public memlp API, not the engines",
							dir, e.Name(), ip)
					}
				}
			}
		}
	}
}
