// Command willowbench runs one workload of the Willow benchmark through
// the program's Go API, checks every output, and prints its metrics.
//
//	willowbench --workload sim-100k-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: whether every
// end-of-run check held, how many operations were attempted and how
// many failed, and the metrics — the end-to-end ones with --trace 0,
// the per-layer ones with --trace 1. See README.md for what each
// workload and metric is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"willow/internal/server"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or of willowd sees.
// "Operation" is a tick on the sim workloads and a request on the
// serve workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"rate_per_s", "1/s"},
	{"latency_p90_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// call into reads 0 there.
var perLayer = []metricDef{
	{"cluster.step_ms", "ms"},
	{"core.observe_ms", "ms"},
	{"core.allocate_ms", "ms"},
	{"core.consume_ms", "ms"},
	{"core.imbalance_ms", "ms"},
	{"netsim.tick_ms", "ms"},
	{"queueing.observe_ms", "ms"},
	{"core.rest_ms", "ms"},
	{"core.migrations_per_tick", "count"},
	{"core.restarts_per_tick", "count"},
	{"core.messages_per_tick", "count"},
	{"runtime.alloc_bytes_per_server_tick", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"server.step_ms", "ms"},
	{"server.state_copy_ms", "ms"},
	{"server.state_encode_ms", "ms"},
	{"server.state_bytes", "bytes"},
	{"server.state_handler_ms", "ms"},
	{"server.demand_handler_ms", "ms"},
	{"server.hub_published_per_tick", "count"},
	{"server.hub_delivered_ratio", "ratio"},
	{"server.scale_demand_ms", "ms"},
	{"server.wal_append_ms", "ms"},
	{"server.gate_shed", "count"},
	{"runtime.alloc_bytes_per_request", "bytes"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its runner. The seed makes every
// input: the Spec's seed, and through it placement, demand noise and
// chaos schedules.
var workloads = map[string]func(seed uint64, seconds float64, traced bool) (*result, error){
	"sim-100k-steady": func(seed uint64, seconds float64, traced bool) (*result, error) {
		return runSim(simCase{spec: server.Spec{
			Util: 0.5, Fanout: []int{4, 5, 5, 10, 100}, Ticks: 1 << 30, Warmup: warmTicks,
			Seed: seed, Supply: "constant",
		}, setups: 5, round: 20}, seconds, traced)
	},
	"sim-2k-deficit-chaos": func(seed uint64, seconds float64, traced bool) (*result, error) {
		return runSim(simCase{spec: server.Spec{
			Util: 0.7, Fanout: []int{2, 10, 10, 10}, Ticks: deficitHorizon, Warmup: warmTicks,
			Seed: seed, Supply: "deficit-steps",
			Chaos: "medium", SensorChaos: "medium", Sensing: true,
		}, chaos: true, setups: 15, round: deficitCycle, fleets: 16}, seconds, traced)
	},
	"serve-10k-read": runServeRead,
	"serve-18-write": runServeWrite,
}

// deficitHorizon is the deficit workload's horizon in ticks, over which
// the chaos schedules are expanded: far beyond what a machine steps, so
// each machine steps a prefix of one long schedule. Schedules expanded
// over a short horizon hold a rack burst or a link-loss window in some
// seeds and none in others, which spread the per-tick cost by a third
// between seeds.
const deficitHorizon = 4096

// deficitCycle is one cycle of the deficit-steps supply: a trace of 8
// supply windows of Eta1 (4) ticks each. Half of its ticks run under a
// deficit and cost several times the others, so every machine times
// one whole cycle. How much a machine migrates under the deficit still
// varies from seed to seed by about a quarter over a cycle, which a
// round of 16 machines averages down to a few percent.
const deficitCycle = 32

// result is what one run measured and checked.
type result struct {
	correct           bool
	attempted, failed int
	firstFailure      error
	values            map[string]float64
	notes             []string
	tr                *tracer // the traced run's spans
}

func newResult() *result { return &result{correct: true, values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// fail counts one failed operation.
func (r *result) fail(err error) {
	r.failed++
	if r.firstFailure == nil {
		r.firstFailure = err
	}
}

// wrong records a failed end-of-run check.
func (r *result) wrong(err error) {
	r.correct = false
	r.notes = append(r.notes, "CHECK FAILED: "+err.Error())
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed (1 is the default seed, 2 the confirmation seed)")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "willowbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(*seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "willowbench:", err)
		os.Exit(1)
	}

	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	out := report{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && *traced == 0 {
			fmt.Fprintf(os.Stderr, "willowbench: %s measured no %s\n", *name, d.name)
			os.Exit(1)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "willowbench: %s attempted no operation\n", *name)
		os.Exit(1)
	}

	fmt.Printf("workload %s seed %d: %d attempted, %d failed\n", *name, *seed, res.attempted, res.failed)
	if res.firstFailure != nil {
		fmt.Printf("first failure: %v\n", res.firstFailure)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	if res.tr != nil {
		for _, l := range res.tr.summary() {
			fmt.Println(l)
		}
		path := filepath.Join(buildDir(), "traces", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := res.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "willowbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Println("spans written to", path)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "willowbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildDir is where the benchmark keeps what it writes (spans, the
// serve workloads' scratch directory): $CARGO_TARGET_DIR, the build
// directory run.py builds into, else .bench_build under the working
// directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
