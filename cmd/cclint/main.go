// Command cclint is the engine's invariant-lint multichecker: five
// go/analysis-style analyzers that mechanically enforce the recovery and
// locking disciplines the paper's theory demands but the compiler cannot
// see.
//
// Standalone:
//
//	go run ./cmd/cclint ./...          # lint the module, exit 2 on findings
//	go run ./cmd/cclint -list          # describe the analyzers
//	go run ./cmd/cclint -summary-out f ./...  # also write the suppression summary
//
// As a vet tool (the unitchecker protocol, reimplemented on the stdlib):
//
//	go build -o cclint ./cmd/cclint
//	go vet -vettool=$PWD/cclint ./...
//
// Analyzers and the bug class each one encodes:
//
//	walerr             swallowed wal.Log errors (PR 7's nine bare-Flush swallows)
//	locksafe           latch acquired without release on an exit path (PR 3)
//	stagebeforemutate  store mutated before its WAL record was staged
//	detreplay          nondeterminism in restart/verification paths
//	atomicfield        mixed atomic/plain access to a published field
//
// A finding is silenced only by a trailing `//lint:ignore <analyzer>
// <justification>` comment; cclint counts every suppression and prints
// the justifications in its summary, so silence stays auditable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/detreplay"
	"repro/internal/analysis/locksafe"
	"repro/internal/analysis/stagebeforemutate"
	"repro/internal/analysis/walerr"
)

// analyzers is the cclint suite, in report order.
var analyzers = []*analysis.Analyzer{
	walerr.Analyzer,
	locksafe.Analyzer,
	stagebeforemutate.Analyzer,
	detreplay.Analyzer,
	atomicfield.Analyzer,
}

// scopes restricts path-sensitive analyzers to the packages whose
// disciplines they encode; walerr and atomicfield apply everywhere.
var scopes = analysis.Scope{
	"locksafe":          {"internal/txn", "internal/checkpoint"},
	"stagebeforemutate": {"internal/recovery", "internal/txn"},
	"detreplay":         {"internal/recovery", "internal/history", "internal/obs"},
}

func main() {
	args := os.Args[1:]
	// The go vet protocol probes the tool before handing it a package
	// config: -V=full must print an identity line, -flags a JSON flag
	// description, and a lone *.cfg argument selects unitchecker mode.
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "--V=full":
			fmt.Println("cclint version 1 (walerr locksafe stagebeforemutate detreplay atomicfield)")
			return
		case a == "-flags" || a == "--flags":
			fmt.Println("[]")
			return
		}
	}
	if n := len(args); n > 0 && strings.HasSuffix(args[n-1], ".cfg") {
		os.Exit(vetMode(args[n-1]))
	}

	fs := flag.NewFlagSet("cclint", flag.ExitOnError)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	summaryOut := fs.String("summary-out", "", "also write the suppression summary to this file")
	quiet := fs.Bool("q", false, "suppress the summary on success")
	fs.Parse(args)

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
			if s := scopes[a.Name]; len(s) > 0 {
				fmt.Printf("%-18s scope: %s\n", "", strings.Join(s, ", "))
			}
		}
		return
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(1)
	}
	res, err := analysis.RunRoot(dir, patterns, analyzers, scopes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cclint:", err)
		os.Exit(1)
	}
	for _, d := range res.Findings {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	summary := res.Summary()
	if *summaryOut != "" {
		if err := os.WriteFile(*summaryOut, []byte(summary), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cclint: writing summary:", err)
			os.Exit(1)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprint(os.Stderr, summary)
		os.Exit(2)
	}
	if !*quiet {
		fmt.Print(summary)
	}
}
