// Command tiersim regenerates the paper's tables and figures from the
// synthetic substrates.
//
// Usage:
//
//	tiersim list                 # index of reproducible artifacts
//	tiersim run fig8 fig9        # run selected experiments
//	tiersim run all              # run everything
//	tiersim -seed 7 run table1   # change the generation seed
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"tieredpricing/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "seed for all synthetic data generation")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	markdown := flag.Bool("md", false, "print tables as GitHub-flavored markdown instead of ASCII")
	workers := flag.Int("parallel", runtime.NumCPU(),
		"worker goroutines for fanning out experiments and the markets of each one's grid (output is identical for any value; 1 = serial)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "list":
		list()
	case "run":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "tiersim: run needs experiment IDs (or 'all')")
			os.Exit(2)
		}
		if err := run(os.Stdout, args[1:], *seed, *workers, *csvDir, *markdown); err != nil {
			fmt.Fprintln(os.Stderr, "tiersim:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "tiersim: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `tiersim — regenerate the SIGCOMM'11 tiered-pricing evaluation

usage:
  tiersim [-seed N] [-parallel N] [-csv DIR] [-md] run <id>... | all
  tiersim list
`)
}

func list() {
	fmt.Println("ID        TITLE")
	for _, e := range experiments.All() {
		fmt.Printf("%-9s %s\n", e.ID, e.Title)
		fmt.Printf("          paper: %s\n", e.Paper)
	}
}

func run(w io.Writer, ids []string, seed int64, workers int, csvDir string, markdown bool) error {
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}
	// Experiments fan out across workers; results come back in submission
	// order, so the rendered output matches a serial run byte for byte.
	results, err := experiments.RunAll(experiments.Options{Seed: seed, Workers: workers}, ids...)
	if err != nil {
		return err
	}
	for i, res := range results {
		id := ids[i]
		if markdown {
			fmt.Fprintf(w, "### %s — %s\n\n", res.ID, res.Title)
			for _, table := range res.Tables {
				if err := table.WriteMarkdown(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
		} else if err := res.WriteASCII(w); err != nil {
			return err
		}
		if csvDir != "" {
			for i, table := range res.Tables {
				name := fmt.Sprintf("%s_%d.csv", id, i)
				f, err := os.Create(filepath.Join(csvDir, name))
				if err != nil {
					return err
				}
				if err := table.WriteCSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
