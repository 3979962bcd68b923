// Command thermlint runs the repo's project-specific static analyzers
// (internal/analysis) over the packages matching its arguments:
//
//	go run ./cmd/thermlint ./...                 # lint the whole tree
//	go run ./cmd/thermlint -list                 # describe the analyzers
//	go run ./cmd/thermlint -run determinism ./internal/loadgen
//	go run ./cmd/thermlint -fix ./...            # apply suggested fixes
//	go run ./cmd/thermlint -format sarif -out thermlint.sarif ./...
//
// Diagnostics print one per line as file:line:col: analyzer: message
// (-format json|sarif renders machine-readable reports instead; -out
// writes the report to a file while keeping findings on stdout's exit
// contract).
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage error —
// the same contract as go vet, so CI can gate on it directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"thermalherd/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source, then re-run")
	format := flag.String("format", "text", "report format: text, json, or sarif")
	out := flag.String("out", "", "write the formatted report to this file (default stdout)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: thermlint [-list] [-run analyzers] [-fix] [-format text|json|sarif] [-out file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := analysis.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers := all
	if *run != "" {
		byName := make(map[string]*analysis.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "thermlint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}
	cfg := analysis.RunConfig{Patterns: flag.Args(), Analyzers: analyzers}
	res, err := analysis.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thermlint: %v\n", err)
		os.Exit(2)
	}
	if *fix {
		applied, err := analysis.ApplyFixes(res.Diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "thermlint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "thermlint: applied fixes for %d finding(s)\n", applied)
		// Re-analyze the fixed sources; surviving findings report normally.
		if res, err = analysis.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "thermlint: %v\n", err)
			os.Exit(2)
		}
	}

	diags := res.Diags
	var report []byte
	switch *format {
	case "text":
		var sb strings.Builder
		for _, d := range diags {
			fmt.Fprintln(&sb, d)
		}
		report = []byte(sb.String())
	case "json":
		if report, err = analysis.FormatJSON(diags); err == nil {
			report = append(report, '\n')
		}
	case "sarif":
		if report, err = analysis.FormatSARIF(diags, analyzers); err == nil {
			report = append(report, '\n')
		}
	default:
		fmt.Fprintf(os.Stderr, "thermlint: unknown format %q (want text, json, or sarif)\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "thermlint: %v\n", err)
		os.Exit(2)
	}
	if *out != "" {
		if err := os.WriteFile(*out, report, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "thermlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		os.Stdout.Write(report)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "thermlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
