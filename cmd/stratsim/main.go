// Command stratsim reproduces the paper's tables and figures.
//
// Usage:
//
//	stratsim -list
//	stratsim -exp fig8
//	stratsim -exp all -scale 1.0 -out results/
//
// Each experiment prints its ASCII chart and/or table plus the qualitative
// checks the paper makes about the artifact. With -out, CSV files suitable
// for external plotting are written as <id>.csv (figures, long form) and
// <id>_table.csv (tables).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"stratmatch/internal/experiments"
	"stratmatch/internal/textplot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stratsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stratsim", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment id to run, or 'all'")
		list    = fs.Bool("list", false, "list available experiments")
		scale   = fs.Float64("scale", 1.0, "population scale factor (1.0 = paper scale)")
		seed    = fs.Uint64("seed", 0, "random seed")
		samples = fs.Int("samples", 0, "Monte-Carlo samples for fig9 (0 = default 1000)")
		out     = fs.String("out", "", "directory for CSV output (created if missing)")
		workers = fs.Int("workers", 0, "goroutines for parallel experiments (0 = all cores); results are identical for any value")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag stops at the first non-flag argument, so a stray word would
	// silently drop every flag after it.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *list {
		// -list runs nothing, so any other flag would be silently ignored.
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "list" {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("-list takes no other flags (got %s)", strings.Join(stray, " "))
		}
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("%-6s %s\n", id, title)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("missing -exp (or -list)")
	}
	cfg := experiments.Config{Seed: *seed, Scale: *scale, MCSamples: *samples, Workers: *workers}
	if err := cfg.Validate(); err != nil {
		var ce *experiments.ConfigError
		if errors.As(err, &ce) {
			return fmt.Errorf("-%s: %w", configFlags[ce.Field], err)
		}
		return err
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fmt.Errorf("create output dir: %w", err)
		}
	}
	failed := 0
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		printResult(res, time.Since(start))
		if *out != "" {
			if err := writeCSV(*out, res); err != nil {
				return err
			}
		}
		if _, fail := res.Checks(); fail > 0 {
			failed += fail
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d qualitative checks failed", failed)
	}
	return nil
}

// configFlags maps each experiments.Config field to the flag that sets it.
var configFlags = map[string]string{"Scale": "scale", "MCSamples": "samples", "Workers": "workers"}

func printResult(res *experiments.Result, elapsed time.Duration) {
	fmt.Printf("=== %s: %s (%.2fs)\n\n", res.ID, res.Title, elapsed.Seconds())
	if len(res.Series) > 0 {
		fmt.Println(res.Chart.Render())
	}
	if len(res.TableRows) > 0 {
		printTable(res.TableHeader, res.TableRows)
	}
	for _, note := range res.Notes {
		fmt.Println("  -", note)
	}
	fmt.Println()
}

func printTable(header []string, rows [][]float64) {
	const maxRows = 24
	fmt.Println(" ", strings.Join(header, "  "))
	step := 1
	if len(rows) > maxRows {
		step = len(rows) / maxRows
	}
	for i := 0; i < len(rows); i += step {
		fields := make([]string, len(rows[i]))
		for j, v := range rows[i] {
			fields[j] = fmt.Sprintf("%*.6g", len(header[j]), v)
		}
		fmt.Println(" ", strings.Join(fields, "  "))
	}
	if step > 1 {
		fmt.Printf("  (%d rows, every %dth shown; full data via -out)\n", len(rows), step)
	}
}

func writeCSV(dir string, res *experiments.Result) error {
	if len(res.Series) > 0 {
		f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
		if err != nil {
			return err
		}
		err = textplot.SeriesCSV(f, res.Series)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s.csv: %w", res.ID, err)
		}
	}
	if len(res.TableRows) > 0 {
		f, err := os.Create(filepath.Join(dir, res.ID+"_table.csv"))
		if err != nil {
			return err
		}
		err = textplot.WriteCSV(f, res.TableHeader, res.TableRows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s_table.csv: %w", res.ID, err)
		}
	}
	return nil
}
