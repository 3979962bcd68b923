package analysis

// RunConfig configures a whole-program analysis run.
type RunConfig struct {
	// Dir is where `go list` runs; "" means the current directory.
	Dir string
	// Patterns are go package patterns; default "./...".
	Patterns []string
	// Analyzers to apply; default All().
	Analyzers []*Analyzer
}

// RunResult is the outcome of a whole-program run.
type RunResult struct {
	// Diags holds every diagnostic from packages matching the
	// requested patterns, sorted by position.
	Diags []Diagnostic
}

// Run is the thermlint engine: it enumerates module packages
// dependency-first, analyzes each, threads exported facts from
// dependencies to importers, and returns the diagnostics for the
// packages matching the requested patterns.
//
// Every module package reachable from the patterns is analyzed — facts
// flow from dependencies even when only their importers were asked
// for — but only packages matching the patterns contribute
// diagnostics.
func Run(cfg RunConfig) (*RunResult, error) {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}
	l, err := newLoader(cfg.Dir, cfg.Patterns...)
	if err != nil {
		return nil, err
	}

	facts := newFactStore()
	res := &RunResult{}
	for _, path := range l.order {
		pkg, err := l.pkg(path)
		if err != nil {
			return nil, err
		}
		diags, err := runOne(pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		if !l.listed[path].DepOnly {
			res.Diags = append(res.Diags, diags...)
		}
	}
	sortDiagnostics(res.Diags)
	return res, nil
}
