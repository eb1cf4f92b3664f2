package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"dlpt/internal/leakcheck"
	"dlpt/internal/stats"
)

// TestMain fails the binary if daemon, cluster or pool goroutines
// outlive the tests: every overlay the benchmark builds must be closed.
func TestMain(m *testing.M) { leakcheck.Main(m) }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	slices.Sort(out)
	return out
}

// runDriver runs one pass of one workload the way the driver does and
// returns the exit status and the parsed last line of standard output.
func runDriver(t *testing.T, args ...string) (int, driverLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(context.Background(), append([]string{"-quick", "-seconds", "1", "-out", t.TempDir()}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line of stdout is not the result object: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	if code != 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, line
}

// TestContractEveryWorkload runs all five workloads at -quick scale,
// both passes, and checks that each pass emits exactly the metrics
// BENCHMARK.json promises for it, finite and well named, with no
// failed operation.
func TestContractEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			code, line := runDriver(t, "-workload", w.name, "-trace", trace)
			if code != 0 || !line.Correct {
				t.Fatalf("%s -trace %s: exit %d, correct=%t", w.name, trace, code, line.Correct)
			}
			if line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s -trace %s: attempted %d, failed %d", w.name, trace, line.Attempted, line.Failed)
			}
			var got []string
			for name, v := range line.Metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) || !unitRE.MatchString(v.Unit) {
					t.Errorf("%s: metric %q unit %q breaks the naming rule", w.name, name, v.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s is %v", w.name, name, v.Value)
				}
				if trace == "0" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, name, v.Value)
				}
			}
			slices.Sort(got)
			if want := names(defs); !slices.Equal(got, want) {
				t.Errorf("%s -trace %s emitted %v, BENCHMARK.json promises %v", w.name, trace, got, want)
			}
		}
	}
}

// TestStandaloneWritesResultsAndTraces runs a whole-set standalone
// invocation on one workload: it must write results.json keyed
// workload → metric → {value, unit, n} and one trace file.
func TestStandaloneWritesResultsAndTraces(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain(context.Background(),
		[]string{"-quick", "-seconds", "1", "-out", dir, "-workload", "lookup-local"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	b, err := os.ReadFile(dir + "/results.json")
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]map[string]measurement
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if m := res["lookup-local"]["failed_ratio"]; m.Value != 0 || m.N == 0 {
		t.Errorf("failed_ratio = %+v, want 0 over a non-empty run", m)
	}
	if m := res["lookup-local/traced"]["harness.ladder_aligned_share"]; m.Value != 1 {
		t.Errorf("ladder aligned share = %v, want 1: the rungs no longer route from the same entry points", m.Value)
	}
	tb, err := os.ReadFile(dir + "/lookup-local.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(tb, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace file: %d spans, err %v", len(spans), err)
	}
}

// TestCorruptModelExitsOne is the acceptance hook: with a falsified
// model a correct program "answers wrongly" and the run must abort
// with exit status 1 and correct=false.
func TestCorruptModelExitsOne(t *testing.T) {
	code, line := runDriver(t, "-workload", "lookup-local", "-trace", "0", "-corrupt-model")
	if code != 1 || line.Correct {
		t.Fatalf("exit %d, correct=%t; want 1, false", code, line.Correct)
	}
}

func TestSeedTwoRunsClean(t *testing.T) {
	code, line := runDriver(t, "-workload", "churn-live", "-trace", "0", "-seed", "2")
	if code != 0 || !line.Correct || line.Failed != 0 {
		t.Fatalf("seed 2: exit %d, correct=%t, failed %d", code, line.Correct, line.Failed)
	}
}

// streamHash identifies an op stream: equal seeds must give equal
// hashes, different seeds different ones.
func streamHash(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%d|%s|%s|%t|%d|%s|%s|%d\n", o.class, o.key, o.hi, o.found, o.count, o.first, o.last, o.dyn)
	}
	return h.Sum64()
}

func TestOpStreamsAreDeterministic(t *testing.T) {
	hashes := func(seed int64) []uint64 {
		g := newGenerator(seed, quickSize.keys)
		return []uint64{
			streamHash(g.lookupStream(0, 512)),
			streamHash(g.lookupStream(1, 512)),
			streamHash(g.scanStream(0, 512)),
			streamHash(g.readerStream("churn/reader", 512, 0.2, true)),
			streamHash(g.writerStream("c", 512)),
		}
	}
	a, b, c := hashes(1), hashes(1), hashes(2)
	if !slices.Equal(a, b) {
		t.Errorf("seed 1 twice: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("stream %d: seed 1 and seed 2 hash alike", i)
		}
	}
	if a[0] == a[1] {
		t.Error("the two clients' lookup streams are identical")
	}
}

func TestWriterStreamKeepsItsInvariant(t *testing.T) {
	stream := newGenerator(1, quickSize.keys).writerStream("w", 1024)
	live := map[string]bool{}
	for _, o := range writerPrologue(stream) {
		live[o.key] = true
	}
	for pass := 0; pass < 3; pass++ {
		for _, o := range stream {
			if o.class == opRegister == live[o.key] {
				t.Fatalf("pass %d: %s %q while registered=%t", pass, classNames[o.class], o.key, live[o.key])
			}
			live[o.key] = o.class == opRegister
		}
	}
}

// TestScansSkipVersionedKeys: a write probe leaves its keys registered
// between its slices, so a checked scan must step over them, and no
// key of the static catalogue may be mistaken for one.
func TestScansSkipVersionedKeys(t *testing.T) {
	g := newGenerator(1, fullSize.keys)
	for _, k := range g.m.sorted {
		if isVersioned(k) {
			t.Fatalf("static key %q carries the versioned mark %q", k, versionedMark)
		}
	}
	w := g.writerStream("p0", 256)
	var res listResult
	start := time.Now()
	for _, k := range []string{w[1].key, "a", "b", w[3].key, "c"} {
		if !isVersioned(w[1].key) {
			t.Fatalf("writer key %q lacks the mark", w[1].key)
		}
		res.add(k, start)
	}
	want := op{count: 3, first: "a", last: "c"}
	if !res.matches(&want) || res.firstNs <= 0 {
		t.Errorf("got %+v, want the three static keys in order and a first-key time", res)
	}
}

// TestCalibrationAndBestEighth pins the two pieces of arithmetic the
// end-to-end numbers rest on.
func TestCalibrationAndBestEighth(t *testing.T) {
	if s := calibrate(); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Errorf("calibrate() = %v steps/ns", s)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, descending
	}
	if lo, hi := bestOf(xs, false), bestOf(xs, true); lo != 13 || hi != 88 {
		t.Errorf("best eighth of 1..100: lower-is-better %v (want 13), higher-is-better %v (want 88)", lo, hi)
	}
}

func TestHistogramQuantilesWithinOnePercent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]float64, 200000)
	for i := range xs {
		v := int64(math.Exp(r.Float64()*16)) + 50 // 50 ns .. 9 ms, log-uniform
		xs[i] = float64(v)
		h.record(v)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		want, got := stats.Quantile(xs, q), h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f: histogram %.1f, exact %.1f", q, got, want)
		}
	}
	var m hist
	m.merge(&h)
	m.merge(&h)
	if m.n != 2*h.n || m.quantile(0.5) != h.quantile(0.5) {
		t.Error("merge changed the distribution")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json and the
// program's own tables from drifting apart, and checks the file
// against the limits of the benchmark contract.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("keys %v, want exactly %v", keys, want)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("size %d, run_seconds %d", len(b), f.RunSeconds)
	}
	if !slices.Equal(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v", f.Paths)
	}
	if len(f.Workloads) != len(workloads) || len(f.Workloads) > 8 {
		t.Fatalf("%d workloads in the file, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q, program has %q (or their why differs)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming or why limits", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program", len(f.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end_to_end %q breaks a limit", m.Name)
		}
		seen[m.Name] = true
	}
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", d)
	}
	if len(f.PerLayer) != len(perLayer) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the program", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per_layer %q breaks a limit", m.Name)
		}
		seen[m.Name] = true
	}
}
