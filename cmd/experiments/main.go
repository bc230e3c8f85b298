// Command experiments runs the derived evaluation suite E1–E16 (one
// experiment per theorem/lemma of the paper; see DESIGN.md §4) and prints
// the tables recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-scale small|full] [-only E5[,E6,...]] [-seed N] [-reportdir DIR]
//
// -reportdir writes one machine-readable JSON report per experiment to
// DIR/<id>.json: the experiment's shape-check results plus the observer's
// phase tree (rounds, messages, words, bits, and message-size histograms
// attributed to each named phase of the run). Experiments that do not route
// an observer through their simulators report an empty phase tree.
//
// The process exits non-zero if any experiment's shape checks fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"expandergap/internal/congest"
	"expandergap/internal/experiments"
)

// report is the schema of one -reportdir file.
type report struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Scale  string          `json:"scale"`
	Seed   int64           `json:"seed"`
	Checks []reportCheck   `json:"checks"`
	Phases *congest.Report `json:"phases"`
}

type reportCheck struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Info string `json:"info,omitempty"`
}

func main() {
	scaleFlag := flag.String("scale", "full", "experiment scale: small or full")
	onlyFlag := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	seedFlag := flag.Int64("seed", 0, "override the experiment seed (0 = default)")
	listFlag := flag.Bool("list", false, "list experiment IDs and exit")
	reportDir := flag.String("reportdir", "", "write one JSON phase report per experiment to this directory")
	flag.Parse()

	if *listFlag {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "small":
		scale = experiments.Small
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q (want small or full)\n", *scaleFlag)
		os.Exit(2)
	}
	params := experiments.DefaultParams(scale)
	if *seedFlag != 0 {
		params.Seed = *seedFlag
	}

	ids := experiments.IDs()
	if *onlyFlag != "" {
		ids = strings.Split(*onlyFlag, ",")
	}

	if *reportDir != "" {
		if err := os.MkdirAll(*reportDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runParams := params
		if *reportDir != "" {
			// A fresh observer per experiment keeps each report's phase
			// tree self-contained.
			runParams.Obs = congest.NewObserver()
		}
		o := experiments.Named(id, runParams)
		fmt.Println(o.Table)
		for _, c := range o.Checks {
			status := "PASS"
			if !c.OK {
				status = "FAIL"
				failed++
			}
			line := fmt.Sprintf("  [%s] %s", status, c.Name)
			if c.Info != "" {
				line += " — " + c.Info
			}
			fmt.Println(line)
		}
		fmt.Println()
		if *reportDir != "" {
			rep := report{ID: id, Title: o.Table.Title, Scale: *scaleFlag, Seed: runParams.Seed, Phases: runParams.Obs.Report()}
			for _, c := range o.Checks {
				rep.Checks = append(rep.Checks, reportCheck{Name: c.Name, OK: c.OK, Info: c.Info})
			}
			data, err := json.MarshalIndent(rep, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(*reportDir, id+".json"), append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: report %s: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d shape check(s) failed\n", failed)
		os.Exit(1)
	}
}
