package main

import (
	"strings"
	"testing"
)

func TestRunUnknownExperiment(t *testing.T) {
	// "bench": performance is measured by benchmark/, the usage text
	// lists no such name, and it must not resolve to anything.
	for _, name := range []string{"nope", "bench"} {
		var b strings.Builder
		if err := run(name, true, "gnuplot", 1, &b); err == nil {
			t.Fatalf("unknown experiment %q must error", name)
		}
	}
}

func TestRunFigureGnuplot(t *testing.T) {
	var b strings.Builder
	if err := run("fig4", true, "gnuplot", 1, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# Figure 4") {
		t.Fatalf("missing figure header:\n%s", out)
	}
	if !strings.Contains(out, "MLT") || !strings.Contains(out, "NoLB") {
		t.Fatalf("missing curves:\n%s", out)
	}
	if !strings.Contains(out, "# elapsed:") {
		t.Fatalf("missing elapsed footer:\n%s", out)
	}
}

func TestRunFigureCSV(t *testing.T) {
	var b strings.Builder
	if err := run("fig4", true, "csv", 1, &b); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(b.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, "time,MLT") {
		t.Fatalf("CSV header = %q", first)
	}
}

func TestRunTables(t *testing.T) {
	for _, name := range []string{"table1", "table2", "ablation", "objective"} {
		var b strings.Builder
		if err := run(name, true, "gnuplot", 1, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(b.String(), "|") {
			t.Fatalf("%s produced no table:\n%s", name, b.String())
		}
	}
}

func TestRunFig9(t *testing.T) {
	var b strings.Builder
	if err := run("fig9", true, "gnuplot", 1, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "physical_lexico_MLT") {
		t.Fatalf("fig9 output missing curve:\n%s", b.String())
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("all experiments take a few seconds")
	}
	var b strings.Builder
	if err := run("all", true, "gnuplot", 1, &b); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"==== fig4 ====", "==== table2 ====", "==== objective ===="} {
		if !strings.Contains(b.String(), section) {
			t.Fatalf("missing section %s", section)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	var a, b strings.Builder
	if err := run("fig4", true, "csv", 7, &a); err != nil {
		t.Fatal(err)
	}
	if err := run("fig4", true, "csv", 7, &b); err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string {
		var out []string
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "# elapsed:") {
				continue
			}
			out = append(out, l)
		}
		return strings.Join(out, "\n")
	}
	if strip(a.String()) != strip(b.String()) {
		t.Fatalf("same seed must give identical output")
	}
}

// The engines table's last two columns, the peers holding tree nodes and
// the node-count Gini, describe the mapping, not the engine: every row
// prints the same pair.
func TestEnginesNodeSpreadAgrees(t *testing.T) {
	var b strings.Builder
	if err := run("engines", true, "gnuplot", 1, &b); err != nil {
		t.Fatal(err)
	}
	var spreads []string
	for _, l := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(l); len(f) == 8 && f[0] != "engine" {
			spreads = append(spreads, f[6]+" "+f[7])
		}
	}
	if len(spreads) != 3 || spreads[0] != spreads[1] || spreads[1] != spreads[2] {
		t.Fatalf("node spread per engine = %q, want three equal rows:\n%s", spreads, b.String())
	}
}

// Every experiment draws from -seed: two seeds print two outputs.
func TestSeedChangesOutput(t *testing.T) {
	for _, name := range []string{"table1", "fig9", "objective", "table2", "ablation"} {
		t.Run(name, func(t *testing.T) {
			var a, b strings.Builder
			if err := run(name, true, "gnuplot", 1, &a); err != nil {
				t.Fatal(err)
			}
			if err := run(name, true, "gnuplot", 2, &b); err != nil {
				t.Fatal(err)
			}
			if a.String() == b.String() {
				t.Fatalf("seeds 1 and 2 print the same %s:\n%s", name, a.String())
			}
		})
	}
}
