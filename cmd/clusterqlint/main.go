// Command clusterqlint runs clusterq's custom static-analysis suite over the
// repository: nine analyzers enforcing the invariants the reproduction's
// credibility rests on — simulator determinism (simdeterm), NaN-safe float
// comparisons (floateq), the observability layer's nil-means-no-op contract
// (nilnoop), checked writer errors (errsink), NaN-safe constructor validation
// (ctorvalidate), map-iteration-order dataflow into results (mapiter), the
// RNG-stream split/append discipline (rngstream), the compile-time
// allocation budget of the pooled hot path and the analytic model's
// evaluation path (hotalloc), and sync/atomic misuse
// (syncguard).
//
// Usage:
//
//	clusterqlint [packages]            # go-style patterns; default ./...
//	clusterqlint -format=sarif ./...   # SARIF 2.1.0 for code scanning
//	clusterqlint -list                 # describe the analyzers and exit
//
// Exit status: 0 when clean, 1 when any analyzer reports a finding, 2 on
// usage or load errors — independent of the output format, so CI can emit
// SARIF and still gate on the code. Findings are suppressed line-by-line
// with a waiver comment on or directly above the flagged line:
//
//	//lint:waive <analyzer> reason="why this is safe" until=2026-12-01
//
// Both attributes are mandatory, and the until date is an exclusive expiry:
// from that day on the waiver stops suppressing and is itself reported, so
// stale exceptions fail the build. See README "Static analysis".
package main

import (
	"flag"
	"fmt"
	"os"

	"clusterq/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	format := flag.String("format", "text", "output format: text or sarif")
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterqlint:", err)
		os.Exit(2)
	}
	args := append([]string{"-format", *format}, flag.Args()...)
	os.Exit(lint.Main(os.Stdout, os.Stderr, cwd, args))
}
