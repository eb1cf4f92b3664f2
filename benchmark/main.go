// Command benchmark measures the dlpt serving system end to end and
// layer by layer: five named workloads against the public
// dlpt.Registry / daemon.Admin surface, every answer checked against
// a model, and a traced pass that times each layer from outside
// through its exported functions. BENCHMARK.json at the repository
// root describes it; README.md in this directory defines every
// metric.
//
// All load comes from this one process (two client goroutines on one
// core) and every socket is host loopback.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

type options struct {
	seed       int64
	workloads  []*workloadDef
	outDir     string
	quick      bool
	aa         bool
	trace      int // 0 untraced pass only, 1 traced pass only, -1 both
	window     time.Duration
	corrupt    bool
	cpuProfile string
	memProfile string
	// driver is set when the command line names one workload and one
	// pass: the last line of standard output is then the one-object
	// JSON result the benchmark contract asks for.
	driver bool
}

func parseArgs(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	var names string
	var seconds int
	fs.Int64Var(&o.seed, "seed", 1, "seed of the overlay and of every op stream")
	fs.StringVar(&names, "workload", "", "comma-separated workloads to run (default: all five)")
	fs.StringVar(&o.outDir, "out", "out", "directory for results.json, *.trace.json and scratch files")
	fs.BoolVar(&o.quick, "quick", false, "8 peers / 500 keys / short window: for tests only, never for reported numbers")
	fs.BoolVar(&o.aa, "aa", false, "run the end-to-end passes twice and check each pair against its bound")
	fs.IntVar(&o.trace, "trace", -1, "0: end-to-end pass only; 1: traced per-layer pass only; default both")
	fs.IntVar(&seconds, "seconds", 15, "length of the timed window in seconds")
	fs.BoolVar(&o.corrupt, "corrupt-model", false, "test hook: falsify the model; the run must exit 1")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	o.window = time.Duration(seconds) * time.Second
	if names == "" {
		for i := range workloads {
			o.workloads = append(o.workloads, &workloads[i])
		}
	} else {
		for _, n := range strings.Split(names, ",") {
			w, ok := findWorkload(n)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", n)
			}
			o.workloads = append(o.workloads, w)
		}
	}
	o.driver = len(o.workloads) == 1 && names != "" && o.trace >= 0 && !o.aa
	return o, nil
}

// driverLine is the benchmark contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics keeps, of everything a pass measured, exactly the
// metrics BENCHMARK.json promises for that pass.
func contractMetrics(r *result) (map[string]driverValue, error) {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := make(map[string]driverValue, len(defs))
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		out[d.name] = driverValue{Value: m.Value, Unit: d.unit}
	}
	return out, nil
}

func printTable(w io.Writer, r *result) {
	pass := "end to end, observability off"
	if r.traced {
		pass = "traced pass, per layer"
	}
	fmt.Fprintf(w, "\n== %s (%s) — attempted %d, failed %d\n", r.workload, pass, r.attempted, r.failed)
	for _, name := range r.metrics.names() {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-34s %16.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	// The whole run is on one core: README.md, Sizing.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fmt.Fprintf(stdout, "# dlpt benchmark: seed %d, one process, 2 client goroutines, GOMAXPROCS 1, all sockets host loopback\n", o.seed)
	if o.quick {
		fmt.Fprintln(stdout, "# -quick: reduced scale, for tests only — do not report these numbers")
	}

	code := 0
	var results []*result
	if o.aa {
		code = runAA(ctx, o, stdout, stderr)
	} else {
		results, err = runAll(ctx, o, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			code = 1
		}
	}
	if o.memProfile != "" {
		if err := writeHeapProfile(o.memProfile); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			code = max(code, 2)
		}
	}
	if len(results) > 0 {
		if err := writeResults(filepath.Join(o.outDir, "results.json"), results); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			code = max(code, 2)
		}
	}
	if o.driver {
		line := driverLine{Correct: code == 0, Attempted: 1, Metrics: map[string]driverValue{}}
		if len(results) == 1 {
			r := results[0]
			line.Attempted, line.Failed = max(r.attempted, 1), r.failed
			if line.Metrics, err = contractMetrics(r); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				line.Correct, code = false, 1
			}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return code
}

// runAll runs the selected passes of the selected workloads. A wrong
// answer or a failed set-up stops at the first error.
func runAll(ctx context.Context, o *options, stdout io.Writer) ([]*result, error) {
	sz := fullSize
	if o.quick {
		sz = quickSize
	}
	var results []*result
	for _, w := range o.workloads {
		e := newEnv(w, o.seed, sz, o.window, o.outDir)
		e.corrupt = o.corrupt
		if o.trace != 1 {
			r, err := runUntraced(ctx, w, e)
			if err != nil {
				return results, err
			}
			printTable(stdout, r)
			results = append(results, r)
		}
		if o.trace != 0 {
			r, err := runTraced(ctx, w, e)
			if err != nil {
				return results, err
			}
			printTable(stdout, r)
			results = append(results, r)
		}
	}
	return results, nil
}

// writeResults writes results.json keyed workload → metric →
// {value, unit, n}; a traced pass is keyed "<workload>/traced".
func writeResults(path string, results []*result) error {
	out := map[string]metrics{}
	for _, r := range results {
		key := r.workload
		if r.traced {
			key += "/traced"
		}
		out[key] = r.metrics
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}
