// Command nwhy-lint runs NWHy-Go's static-analysis suite: repo-specific
// checks that machine-enforce the engine and concurrency invariants
// (engine-first kernels, pool-confined goroutines, per-round cancellation,
// arena recycling, context propagation, and lock balance).
// Every package's non-test files are type-checked, so the checks see real
// method sets and the cross-package call graph.
//
// Usage:
//
//	go run ./cmd/nwhy-lint ./...   # lint the whole module
//	go run ./cmd/nwhy-lint -list   # print the registered checks
//
// Diagnostics print as file:line:col: check: message. The exit status is 0
// when the tree is clean, 1 when diagnostics were reported, and 2 on usage
// or load errors (a package that does not parse or type-check included).
// Individual findings can be silenced with a justified suppression comment:
//
//	//nwhy:nolint(check-name) reason the invariant is safe to waive here
//
// The tool is built on the standard library only; it adds no module
// dependencies.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nwhy/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nwhy-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the registered checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range analysis.Checks() {
			fmt.Fprintf(stdout, "%-20s %s\n", c.Name, c.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "nwhy-lint:", err)
		return 2
	}
	pkgs, err := analysis.Load(root, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "nwhy-lint:", err)
		return 2
	}
	diags := analysis.Run(pkgs, analysis.Checks())
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stdout, "nwhy-lint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
