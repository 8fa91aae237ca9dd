// Command docscheck is the repo's documentation lint, run by
// `./ci.sh docs`. It enforces six invariants that otherwise rot
// silently:
//
//  1. Every relative markdown link in the repo's .md files resolves to
//     a file or directory that exists (external URLs and pure anchors
//     are skipped).
//  2. README.md's repo-layout map names every cmd/ and internal/
//     package, and bench/, so a new package cannot land without an
//     entry in the map a newcomer reads first.
//  3. Every exported Prometheus-style metric name minted in
//     internal/server (the tierd_* families) appears in
//     docs/OPERATIONS.md, so the operator manual cannot drift behind
//     the exposition.
//  4. Every Go benchmark, test or fuzz target named in README.md,
//     DESIGN.md, EXPERIMENTS.md, docs/*.md or ci.sh (a
//     `Benchmark[A-Z]…`, `Test[A-Z]…` or `Fuzz[A-Z]…` identifier, up to
//     any `/sub` suffix) is a func in some _test.go of the root module
//     or of bench/, so a perf claim always names something runnable and
//     a `go test -run` stage cannot pass green with nothing to run.
//  5. Every `./ci.sh <stage>` the same documents write is a stage
//     ci.sh's dispatch accepts, and every cmd/<name> or internal/<name>
//     path they write is a directory that exists, so a deleted stage or
//     package cannot live on in prose. (CHANGES.md and ROADMAP.md are
//     history and exempt.)
//  6. The flags cmd/tierd/main.go registers and the `-flag` rows of
//     docs/OPERATIONS.md's flags table are the same set, so a new flag
//     cannot ship undocumented and a retired one cannot keep its row.
//
// Violations are listed one per line on stderr; any violation exits 1.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	violations, err := check(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "docscheck:", v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// check runs every lint against the tree at root and returns the
// violation messages in deterministic order.
func check(root string) ([]string, error) {
	var violations []string

	mds, err := markdownFiles(root)
	if err != nil {
		return nil, err
	}
	for _, md := range mds {
		v, err := checkLinks(root, md)
		if err != nil {
			return nil, err
		}
		violations = append(violations, v...)
	}

	for _, lint := range []func(string) ([]string, error){
		checkLayoutMap, checkMetricsDocumented, checkTestsExist, checkCitedPathsExist,
		checkFlagsDocumented,
	} {
		v, err := lint(root)
		if err != nil {
			return nil, err
		}
		violations = append(violations, v...)
	}
	return violations, nil
}

// markdownFiles lists every .md file under root, skipping VCS and
// build-output directories.
func markdownFiles(root string) ([]string, error) {
	var mds []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mds = append(mds, path)
		}
		return nil
	})
	sort.Strings(mds)
	return mds, err
}

// linkRE matches markdown inline links and images: [text](target) /
// ![alt](target). Reference-style links are rare here and not checked.
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkLinks verifies every relative link in one markdown file points
// at an existing file or directory.
func checkLinks(root, md string) ([]string, error) {
	b, err := os.ReadFile(md)
	if err != nil {
		return nil, err
	}
	var violations []string
	for _, m := range linkRE.FindAllStringSubmatch(string(b), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
			continue // external
		}
		target, _, _ = strings.Cut(target, "#")
		if target == "" {
			continue // pure in-page anchor
		}
		resolved := filepath.Join(filepath.Dir(md), target)
		if _, err := os.Stat(resolved); err != nil {
			rel, rerr := filepath.Rel(root, md)
			if rerr != nil {
				rel = md
			}
			violations = append(violations, fmt.Sprintf("%s: broken link %q", rel, m[1]))
		}
	}
	return violations, nil
}

// goPackages lists the immediate subdirectories of dir that contain .go
// files — the packages the layout map must cover.
func goPackages(root, dir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(root, dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var pkgs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub, err := os.ReadDir(filepath.Join(root, dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range sub {
			if strings.HasSuffix(f.Name(), ".go") {
				pkgs = append(pkgs, dir+"/"+e.Name())
				break
			}
		}
	}
	return pkgs, nil
}

// checkLayoutMap verifies README.md mentions every cmd/ and internal/
// package by its path, and bench/ when the benchmark module is there.
func checkLayoutMap(root string) ([]string, error) {
	b, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, err
	}
	readme := string(b)
	var pkgs []string
	for _, dir := range []string{"cmd", "internal"} {
		p, err := goPackages(root, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p...)
	}
	// The benchmark is a module of its own beside them.
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		pkgs = append(pkgs, "bench/")
	}
	var violations []string
	for _, pkg := range pkgs {
		if !strings.Contains(readme, pkg) {
			violations = append(violations,
				fmt.Sprintf("README.md: repo-layout map does not mention %s", pkg))
		}
	}
	return violations, nil
}

// metricRE matches the tierd_* metric names internal/server mints in
// its exposition writers.
var metricRE = regexp.MustCompile(`tierd_[a-z0-9_]+`)

// checkMetricsDocumented extracts every tierd_* metric name from
// internal/server's non-test sources and requires each to appear in
// docs/OPERATIONS.md.
func checkMetricsDocumented(root string) ([]string, error) {
	srcDir := filepath.Join(root, "internal", "server")
	entries, err := os.ReadDir(srcDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, m := range metricRE.FindAllString(string(b), -1) {
			names[m] = true
		}
	}
	opsPath := filepath.Join(root, "docs", "OPERATIONS.md")
	b, err := os.ReadFile(opsPath)
	if err != nil {
		if os.IsNotExist(err) && len(names) > 0 {
			return []string{"docs/OPERATIONS.md: missing (required to document exported metrics)"}, nil
		}
		return nil, err
	}
	ops := string(b)
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var violations []string
	for _, n := range sorted {
		if !strings.Contains(ops, n) {
			violations = append(violations,
				fmt.Sprintf("docs/OPERATIONS.md: exported metric %s undocumented", n))
		}
	}
	return violations, nil
}

// testCiteRE matches a Go benchmark, test or fuzz target name as prose
// or a ci.sh stage cites it; testFuncRE matches its declaration.
var (
	testCiteRE = regexp.MustCompile(`\b(?:Benchmark|Test|Fuzz)[A-Z]\w*`)
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)[A-Z]\w*)\(`)
)

// checkTestsExist requires every benchmark, test and fuzz target the
// top-level documents, docs/*.md and ci.sh cite to be declared in a
// _test.go file somewhere under root (the root module and bench/ alike).
func checkTestsExist(root string) ([]string, error) {
	declared := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build: no sources, and may change underfoot
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(b, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var violations []string
	err = eachCurrentDoc(root, func(rel, text string) {
		for _, name := range uniqueMatches(testCiteRE, text) {
			if !declared[name] {
				violations = append(violations,
					fmt.Sprintf("%s: cites %s, which no _test.go declares", rel, name))
			}
		}
	}, "ci.sh")
	return violations, err
}

// eachCurrentDoc calls fn with the root-relative name and the text of
// every document that describes the tree as it is — README.md, DESIGN.md,
// EXPERIMENTS.md, docs/*.md and any extra root-level files, in sorted
// order, skipping any that do not exist.
func eachCurrentDoc(root string, fn func(rel, text string), extra ...string) error {
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return err
	}
	for _, name := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, extra...) {
		docs = append(docs, filepath.Join(root, name))
	}
	sort.Strings(docs)
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, doc)
		fn(rel, string(b))
	}
	return nil
}

// uniqueMatches returns re's capture group (the whole match when re has
// none) for every match in text, sorted, each once.
func uniqueMatches(re *regexp.Regexp, text string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		s := m[len(m)-1]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// stageCiteRE matches a ci.sh stage as the documents invoke it, pkgCiteRE
// a cmd/ or internal/ package path.
var (
	stageCiteRE = regexp.MustCompile(`\./ci\.sh[ \t]+([a-z][a-z0-9-]*)`)
	pkgCiteRE   = regexp.MustCompile(`\b(?:cmd|internal)/[a-z][a-z0-9_]*`)
)

// ciStages lists the stage names ci.sh dispatches: the alternatives of
// the arms (`recover | tenants)`) between `case "${1:-}" in` and its
// `esac`. No ci.sh, or no such case, means no stages.
func ciStages(root string) (map[string]bool, error) {
	b, err := os.ReadFile(filepath.Join(root, "ci.sh"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	_, dispatch, _ := strings.Cut(string(b), `case "${1:-}" in`)
	dispatch, _, _ = strings.Cut(dispatch, "esac")
	stages := map[string]bool{}
	for _, line := range strings.Split(dispatch, "\n") {
		arm, ok := strings.CutSuffix(strings.TrimSpace(line), ")")
		if !ok {
			continue
		}
		for _, name := range strings.Split(arm, "|") {
			stages[strings.TrimSpace(name)] = true
		}
	}
	return stages, nil
}

// checkCitedPathsExist requires every `./ci.sh <stage>` the current
// documents write to be a stage ci.sh dispatches, and every cmd/<name>
// or internal/<name> path to be a directory under root.
func checkCitedPathsExist(root string) ([]string, error) {
	stages, err := ciStages(root)
	if err != nil {
		return nil, err
	}
	var violations []string
	err = eachCurrentDoc(root, func(rel, text string) {
		for _, stage := range uniqueMatches(stageCiteRE, text) {
			if !stages[stage] {
				violations = append(violations,
					fmt.Sprintf("%s: cites ./ci.sh %s, which ci.sh does not dispatch", rel, stage))
			}
		}
		for _, pkg := range uniqueMatches(pkgCiteRE, text) {
			if fi, err := os.Stat(filepath.Join(root, pkg)); err != nil || !fi.IsDir() {
				violations = append(violations,
					fmt.Sprintf("%s: cites %s, which is not a directory", rel, pkg))
			}
		}
	})
	return violations, err
}

// flagDefRE matches a flag registration (`flag.IntVar(&cfg.tiers,
// "tiers", …)` or `flag.Bool("version", …)`); flagRowRE a markdown table
// row that opens with a `-flag` cell.
var (
	flagDefRE = regexp.MustCompile(`\bflag\.[A-Z]\w*\(\s*(?:&[\w.]+\s*,\s*)?"([^"]+)"`)
	flagRowRE = regexp.MustCompile("(?m)^\\|\\s*`-([^`\\s]+)`")
)

// checkFlagsDocumented requires every flag cmd/tierd/main.go registers to
// have a `-flag` row in docs/OPERATIONS.md, and every such row to name a
// registered flag.
func checkFlagsDocumented(root string) ([]string, error) {
	src, err := os.ReadFile(filepath.Join(root, "cmd", "tierd", "main.go"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	ops, err := os.ReadFile(filepath.Join(root, "docs", "OPERATIONS.md"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	registered := uniqueMatches(flagDefRE, string(src))
	documented := uniqueMatches(flagRowRE, string(ops))
	var violations []string
	for _, name := range registered {
		if !slices.Contains(documented, name) {
			violations = append(violations,
				fmt.Sprintf("docs/OPERATIONS.md: tierd flag -%s has no row in the flags table", name))
		}
	}
	for _, name := range documented {
		if !slices.Contains(registered, name) {
			violations = append(violations,
				fmt.Sprintf("docs/OPERATIONS.md: flags table has a row for -%s, which cmd/tierd/main.go does not register", name))
		}
	}
	return violations, nil
}
