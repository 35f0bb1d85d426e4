// Command drainvet runs the simulator's custom static analysis (see
// internal/lint): six analyzers that enforce the determinism,
// hot-path allocation, cancellation and cache-key invariants the DRAIN
// evaluation depends on. It is wired into
// `make check` and CI; a finding fails the build.
//
// Usage:
//
//	drainvet [flags] [packages]
//
// Packages default to ./... . Findings print as
//
//	file:line: [analyzer] message
//
// With -json the output is a stable envelope consumed by the CI
// artifact upload:
//
//	{"schema": "drainvet/2", "findings": [...]}
//
// Findings are sorted by (file, line, column, analyzer, message) and
// their file paths are relative to the resolved working directory (the
// -C argument) whenever they fall under it, so the report is
// byte-reproducible across checkouts. The schema field versions the
// shape: consumers reject reports they do not understand instead of
// misparsing them.
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"drain/internal/lint"
)

// jsonSchema identifies the -json output shape. Bump it when the
// envelope or the per-finding fields change incompatibly.
const jsonSchema = "drainvet/2"

// report is the -json envelope.
type report struct {
	Schema   string         `json:"schema"`
	Findings []lint.Finding `json:"findings"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drainvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("C", "", "change to `dir` before resolving package patterns")
		jsonOut  = fs.Bool("json", false, "emit findings as a JSON array")
		detPkgs  = fs.String("detpkgs", "", "comma-separated import-path suffixes overriding the deterministic-package scope (maprange/nondet)")
		hotRoots = fs.String("hotroots", "", "comma-separated hot-path root overrides, e.g. internal/noc.Network.Step")
	)
	enabled := map[string]*bool{}
	for _, a := range lint.Analyzers() {
		enabled[a.Name] = fs.Bool(a.Name, true, "run the "+a.Name+" analyzer: "+a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cfg := lint.DefaultConfig()
	if *detPkgs != "" {
		cfg.DeterministicPkgs = splitList(*detPkgs)
	}
	if *hotRoots != "" {
		cfg.HotRoots = splitList(*hotRoots)
	}
	var names []string
	for _, a := range lint.Analyzers() {
		if *enabled[a.Name] {
			names = append(names, a.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(stderr, "drainvet: every analyzer is disabled")
		return 2
	}

	pkgs, err := lint.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "drainvet: %v\n", err)
		return 2
	}
	findings := lint.Analyze(cfg, pkgs, names...)
	if *jsonOut {
		if findings == nil {
			findings = []lint.Finding{}
		}
		relativizeFindings(*dir, findings)
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Schema: jsonSchema, Findings: findings}); err != nil {
			fmt.Fprintf(stderr, "drainvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "drainvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relativizeFindings rewrites finding paths relative to the resolved
// working directory (slash-separated) so the JSON report does not bake
// in the absolute checkout path. Paths outside dir — and the synthetic
// "go build" pseudo-file escapecheck uses for build failures — are left
// alone.
func relativizeFindings(dir string, findings []lint.Finding) {
	if dir == "" {
		dir = "."
	}
	base, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for i, f := range findings {
		if !filepath.IsAbs(f.File) {
			continue
		}
		rel, err := filepath.Rel(base, f.File)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		findings[i].File = filepath.ToSlash(rel)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
