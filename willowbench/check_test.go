package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"willow/internal/server"
)

// steppedView steps a small machine of the given case, checking every
// tick, until a reading past the warm-up satisfies want. It returns
// that reading and the checker state it must be checked against.
func steppedView(t *testing.T, sc simCase, want func(*fleetView) bool) (fleetView, fleetChecker) {
	t.Helper()
	sm, err := sc.build(sc.spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sc.spec.Ticks-1; i++ {
		sm.m.Step()
		before := sm.checker
		sm.view.read(sm.m, sm.created)
		if i >= warmTicks && want(&sm.view) {
			return clone(sm.view), before
		}
		if err := sm.checker.check(&sm.view); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	t.Fatalf("no tick of %s matched", sc.spec.Supply)
	return fleetView{}, fleetChecker{}
}

func clone(v fleetView) fleetView {
	c := v
	c.temp = append([]float64(nil), v.temp...)
	c.limit = append([]float64(nil), v.limit...)
	c.consumed = append([]float64(nil), v.consumed...)
	c.tp = append([]float64(nil), v.tp...)
	c.raw = append([]float64(nil), v.raw...)
	c.hardCap = append([]float64(nil), v.hardCap...)
	c.asleep = append([]bool(nil), v.asleep...)
	c.apps = append([]int(nil), v.apps...)
	c.nodeTP = append([]float64(nil), v.nodeTP...)
	c.live = append([]bool(nil), v.live...)
	return c
}

var (
	steadyCase = simCase{spec: server.Spec{
		Util: 0.7, Fanout: []int{2, 3, 3}, Ticks: 64, Warmup: warmTicks, Seed: 3, Supply: "deficit-steps",
	}}
	chaosCase = simCase{spec: server.Spec{
		Util: 0.7, Fanout: []int{2, 5, 10}, Ticks: 200, Warmup: warmTicks, Seed: 3, Supply: "deficit-steps",
		Chaos: "medium", SensorChaos: "medium", Sensing: true,
	}, chaos: true}
)

// busyServer returns a server that is awake and drawing power.
func busyServer(t *testing.T, v *fleetView) int {
	for i := range v.consumed {
		if !v.asleep[i] && v.consumed[i] > 0 {
			return i
		}
	}
	t.Fatal("no busy server")
	return 0
}

// TestFleetChecksCatchCorruption corrupts one value of a real fleet
// reading at a time; each must fail the check the unmodified reading
// passes.
func TestFleetChecksCatchCorruption(t *testing.T) {
	corruptions := []struct {
		name, want string
		sc         simCase
		at         func(*fleetView) bool
		corrupt    func(*fleetView)
	}{
		{"server over its thermal limit", "over its limit", steadyCase, allocTick, func(v *fleetView) {
			v.temp[5] = v.limit[5] + 0.01
		}},
		{"consumption over budget", "above budget", steadyCase, allocTick, func(v *fleetView) {
			i := busyServer(t, v)
			v.consumed[i] = v.tp[i] + 1e-3
		}},
		{"negative consumption", "consumed -", steadyCase, allocTick, func(v *fleetView) {
			v.consumed[busyServer(t, v)] = -1
		}},
		{"consumption over the hard cap under chaos", "above its hard cap", chaosCase, allocTick, func(v *fleetView) {
			i := busyServer(t, v)
			v.consumed[i] = v.hardCap[i] + 1e-3
		}},
		{"PMU hands out more than its budget", "handed its children", steadyCase, allocTick, func(v *fleetView) {
			v.nodeTP[v.children[1][0]] += v.nodeTP[1]
		}},
		{"PMU overspend under chaos", "handed its children", chaosCase, handedTick, func(v *fleetView) {
			for _, c := range v.children[0] {
				if v.live[c] {
					v.nodeTP[c] = v.nodeTP[0] + 1
					return
				}
			}
			t.Fatal("no live child under the root")
		}},
		{"application lost", "hosted +", steadyCase, allocTick, func(v *fleetView) {
			v.apps = v.apps[:len(v.apps)-1]
		}},
		{"application hosted twice", "hosted twice", steadyCase, allocTick, func(v *fleetView) {
			v.apps[1] = v.apps[0]
		}},
		{"orphan lost under chaos", "orphaned", chaosCase, orphaned, func(v *fleetView) {
			v.orphans--
		}},
		{"three messages on one link", "messages on one link", steadyCase, allocTick, func(v *fleetView) {
			v.maxLinkMessages = 3
		}},
		{"ping-pong migration", "ping-pong", steadyCase, allocTick, func(v *fleetView) {
			v.pingPongs = 1
		}},
		{"energy not matching consumption", "energy totals", steadyCase, allocTick, func(v *fleetView) {
			v.tickJoules *= 1.000001
		}},
		{"shed energy not matching drops", "energy totals", chaosCase, allocTick, func(v *fleetView) {
			v.tickShed += 1
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			v, fc := steppedView(t, c.sc, c.at)
			ok := fc
			if err := ok.check(&v); err != nil {
				t.Fatalf("unmodified reading fails: %v", err)
			}
			bad := clone(v)
			c.corrupt(&bad)
			err := fc.check(&bad)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("corrupted reading: got %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func allocTick(v *fleetView) bool  { return v.allocated }
func handedTick(v *fleetView) bool { return v.allocated && v.budgetLoss == 0 }
func orphaned(v *fleetView) bool   { return v.orphans > 0 }

func smallDaemon(t *testing.T) *server.Daemon {
	t.Helper()
	d, err := server.New(server.Spec{Util: 0.5, Fanout: []int{2, 3, 3}, Ticks: 100, Warmup: warmTicks, Seed: 5, Supply: "constant", Hotzone: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	d.StepN(12)
	return d
}

func TestStateCheckCatchesCorruption(t *testing.T) {
	st := smallDaemon(t).State()
	body := encodeState(st)
	if tick, err := checkState(body, 18, 12); err != nil || tick != 12 {
		t.Fatalf("unmodified body: tick %d, %v", tick, err)
	}
	if _, err := checkState(body, 18, 13); err == nil {
		t.Error("a tick earlier than the last one read passed")
	}
	short := st
	short.ServerStates = st.ServerStates[:17]
	if _, err := checkState(encodeState(short), 18, 0); err == nil {
		t.Error("a body one row short passed")
	}
	swapped := st
	swapped.ServerStates = append([]server.ServerState(nil), st.ServerStates...)
	swapped.ServerStates[3], swapped.ServerStates[4] = swapped.ServerStates[4], swapped.ServerStates[3]
	if _, err := checkState(encodeState(swapped), 18, 0); err == nil {
		t.Error("a body with rows out of order passed")
	}
	if _, err := checkState(body[:len(body)/2], 18, 0); err == nil {
		t.Error("a truncated body passed")
	}
}

func TestSameBytesCatchesOneByte(t *testing.T) {
	body := encodeState(smallDaemon(t).State())
	if err := sameBytes("state", body, append([]byte(nil), body...)); err != nil {
		t.Fatal(err)
	}
	other := append([]byte(nil), body...)
	other[len(other)/2] ^= 1
	if err := sameBytes("state", other, body); err == nil {
		t.Fatal("states one byte apart compared equal")
	}
}

func TestJournalCheckCatchesMissingMutation(t *testing.T) {
	spec := server.DefaultSpec()
	acked := []server.Mutation{
		{Tick: 1, Kind: "demand", Server: 3, Factor: 1.25},
		{Tick: 1, Kind: "demand", Server: 4, Factor: 0.8},
		{Tick: 2, Kind: "demand", Server: 3, Factor: 0.8},
	}
	walWith := func(muts []server.Mutation) []server.Mutation {
		path := filepath.Join(t.TempDir(), "w.wal")
		w, err := server.CreateWAL(path, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range muts {
			if err := w.Append(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, st, err := server.OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		return st.Mutations
	}
	if err := checkJournal(walWith(acked), acked); err != nil {
		t.Fatalf("complete wal: %v", err)
	}
	if err := checkJournal(walWith(acked[:2]), acked); err == nil {
		t.Error("a wal missing the last acknowledged mutation passed")
	}
	if err := checkJournal(walWith([]server.Mutation{acked[0], acked[2]}), acked); err == nil {
		t.Error("a wal missing a middle acknowledged mutation passed")
	}
	if err := checkJournal(walWith([]server.Mutation{acked[1], acked[0], acked[2]}), acked); err == nil {
		t.Error("a wal with mutations out of order passed")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "step", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "observe", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "consume", Start: 5, End: 7},
		{ID: 4, Name: "replay", Start: 10, End: 11},
	}
	ls := tr.layers()
	if got := ls["step"]; got.Count != 1 || got.TotalMS != 10 || got.SelfMS != 5 {
		t.Errorf("step: %+v, want total 10 self 5", got)
	}
	if got := ls["observe"]; got.SelfMS != 3 {
		t.Errorf("observe: %+v, want self 3", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads this program reports the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
