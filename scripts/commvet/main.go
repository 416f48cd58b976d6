// Command commvet runs the commlat static-analysis suite: the AST/type
// analyzers of internal/analysis (atomicfield, seqlock, poolzero,
// padcheck, gatecheck) over the module's packages, plus specvet over the
// spectext files in -specs. It exits nonzero when anything is found, so
// CI can require it; -json writes a machine-readable report. The summary
// line carries the suite's own runtime, so CI time creep stays visible in
// the job's output.
//
// Usage:
//
//	go run ./scripts/commvet [-json out.json] [-specs dir] [-root dir] [patterns...]
//
// Patterns default to ./... against the module root (found by walking up
// from the working directory to the nearest go.mod).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"commlat/internal/analysis"
)

type report struct {
	Schema    string             `json:"schema"`
	ElapsedNS int64              `json:"elapsed_ns"`
	Packages  int                `json:"go_packages"`
	SpecFiles int                `json:"spec_files"`
	Analyzers []string           `json:"analyzers"`
	Findings  []analysis.Finding `json:"findings"`
}

func main() {
	var (
		jsonOut = flag.String("json", "", "write a JSON report to this file ('-' for stdout)")
		specs   = flag.String("specs", "", "directory of .spec files to vet (default <root>/examples/specs)")
		root    = flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
	)
	flag.Parse()

	start := time.Now()
	moduleRoot := *root
	if moduleRoot == "" {
		var err error
		moduleRoot, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}
	specDir := *specs
	if specDir == "" {
		specDir = filepath.Join(moduleRoot, "examples", "specs")
	}

	loader, err := analysis.NewLoader(moduleRoot)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fatal(err)
	}
	findings := analysis.Run(pkgs, loader.Sizes())

	specFiles := 0
	if st, err := os.Stat(specDir); err == nil && st.IsDir() {
		specFindings, err := analysis.VetSpecDir(specDir)
		if err != nil {
			fatal(err)
		}
		findings = append(findings, specFindings...)
		entries, _ := os.ReadDir(specDir)
		for _, e := range entries {
			if !e.IsDir() && filepath.Ext(e.Name()) == ".spec" {
				specFiles++
			}
		}
	}

	rep := report{
		Schema:    "commvet/v1",
		ElapsedNS: time.Since(start).Nanoseconds(),
		Packages:  len(pkgs),
		SpecFiles: specFiles,
		Findings:  findings,
	}
	for _, a := range analysis.Suite {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}
	rep.Analyzers = append(rep.Analyzers, "specvet")

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
	}

	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
	}
	fmt.Fprintf(os.Stderr, "commvet: %d finding(s) across %d package(s), %d spec file(s) in %s\n",
		len(findings), len(pkgs), specFiles, time.Since(start).Round(time.Millisecond))
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("commvet: no go.mod above the working directory")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "commvet:", err)
	os.Exit(2)
}
