// Command dlptsim regenerates the tables and figures of the paper's
// evaluation (RR-6557 Section 4 and 5). Each experiment prints the
// same rows/series the paper reports: figures as gnuplot-style
// columns (or CSV with -format csv), tables as aligned text.
//
// Usage:
//
//	dlptsim [-quick] [-format gnuplot|csv] [-seed N] fig4..fig9|table1|table2|ablation|objective|engines|all
//	dlptsim churn [-engine local|live|tcp] [-peers N] [-ops N] [-strategy MLT] ...
//
// The default scale matches the paper (100 peers, 1000 keys, 30-100
// runs); -quick runs a reduced scale in a few seconds. engines prints
// the three execution engines side by side on one workload. The churn
// subcommand soaks an engine under membership churn (joins, graceful
// leaves, crashes, recoveries, periodic balancing). Performance is
// measured by benchmark/ (see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dlpt/internal/experiments"
	"dlpt/internal/metrics"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale (seconds instead of minutes)")
	format := flag.String("format", "gnuplot", "figure output format: gnuplot or csv")
	seed := flag.Int64("seed", 1, "base random seed")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dlptsim [flags] fig4|fig5|fig6|fig7|fig8|fig9|table1|table2|ablation|objective|engines|all\n"+
				"       dlptsim churn [churn flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch flag.Arg(0) {
	case "churn":
		// The subcommand owns its flags; top-level flags before it
		// would be silently dropped, so refuse them.
		if flag.NFlag() > 0 {
			fmt.Fprintln(os.Stderr,
				"dlptsim: pass flags after the subcommand, e.g. dlptsim churn -seed 7")
			os.Exit(2)
		}
		err = runChurn(flag.Args()[1:], os.Stdout)
	default:
		if flag.NArg() != 1 {
			flag.Usage()
			os.Exit(2)
		}
		err = run(flag.Arg(0), *quick, *format, *seed, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlptsim: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, quick bool, format string, seed int64, w io.Writer) error {
	writeDS := func(ds *metrics.Dataset) error {
		if format == "csv" {
			return ds.WriteCSV(w)
		}
		return ds.WriteGnuplot(w)
	}
	runFigure := func(spec experiments.Spec) error {
		spec.Base.Seed = seed
		start := time.Now()
		ds, err := experiments.RunSpec(spec)
		if err != nil {
			return err
		}
		if err := writeDS(ds); err != nil {
			return err
		}
		fmt.Fprintf(w, "# elapsed: %v\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	switch name {
	case "fig4":
		return runFigure(experiments.Figure4(quick))
	case "fig5":
		return runFigure(experiments.Figure5(quick))
	case "fig6":
		return runFigure(experiments.Figure6(quick))
	case "fig7":
		return runFigure(experiments.Figure7(quick))
	case "fig8":
		return runFigure(experiments.Figure8(quick))
	case "zipf":
		return runFigure(experiments.Zipf(quick))
	case "fig9":
		spec := experiments.Figure9(quick)
		spec.Base.Seed = seed
		ds, err := experiments.RunFigure9(spec)
		if err != nil {
			return err
		}
		return writeDS(ds)
	case "table1":
		tb, err := experiments.Table1(quick, seed)
		if err != nil {
			return err
		}
		return tb.Render(w)
	case "table2":
		tb, err := experiments.Table2(quick, seed)
		if err != nil {
			return err
		}
		return tb.Render(w)
	case "ablation":
		tb, err := experiments.AblationMaintenance(quick, seed)
		if err != nil {
			return err
		}
		return tb.Render(w)
	case "objective":
		tb, err := experiments.AblationObjective(quick, seed)
		if err != nil {
			return err
		}
		return tb.Render(w)
	case "engines":
		return runEngines(quick, seed, w)
	case "all":
		for _, n := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
			"table1", "table2", "ablation", "objective", "zipf"} {
			fmt.Fprintf(w, "==== %s ====\n", n)
			if err := run(n, quick, format, seed, w); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q", name)
}
