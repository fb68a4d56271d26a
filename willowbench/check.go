package main

// Output checkers. Each compares what the program produced against a
// property of the method (Eq. 3's thermal cap, budget conservation,
// application conservation, Section V-A's message bound) or against a
// sum the benchmark computes itself — never against a stored copy of
// some earlier output. The checkers take plain values extracted from
// the program, so the tests in check_test.go can corrupt one value and
// see the check fail.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"willow/internal/cluster"
	"willow/internal/server"
)

// tol is the absolute slack the repository's own invariant tests allow
// on watts and degrees.
const tol = 1e-6

// fleetView is one between-ticks reading of a simulated fleet: per-server
// slices indexed by server, per-node slices indexed by tree node ID.
// Buffers are reused from tick to tick.
type fleetView struct {
	temp, limit       []float64
	consumed, tp, raw []float64
	asleep            []bool
	// hardCap is each server's hard cap in force during the tick just
	// stepped: Eq. 3 from the observed temperature the previous tick
	// left, with the circuit and peak limits. capNext is the cap the
	// tick just stepped leaves for the next one.
	hardCap, capNext []float64

	// apps lists every hosted application ID, in server order.
	apps    []int
	created int
	orphans int

	// nodeTP is each node's granted budget (a server's TP for leaves);
	// children lists each internal node's child IDs. live marks the
	// nodes, servers and PMUs, that are neither crashed nor riding an
	// expired lease: a live PMU hands budget to its live children, while
	// a crashed or degraded child holds a budget no parent handed it.
	nodeTP   []float64
	children [][]int
	live     []bool

	// allocated reports that the tick just stepped opened a supply
	// window, so every live PMU has just handed its children budgets;
	// budgetLoss is the share of budget directives a link-loss window
	// dropped during that tick.
	allocated  bool
	budgetLoss float64

	maxLinkMessages, pingPongs int

	// tickJoules / tickShed are the benchmark's own sums of Consumed()
	// and Dropped() this tick, times TickSeconds; joules / shed are the
	// controller's cumulative EnergyTotals.
	tickJoules, tickShed float64
	joules, shed         float64
}

// prime records the hard caps a freshly built machine starts with.
func (v *fleetView) prime(m *cluster.Machine) {
	c := m.Controller()
	v.capNext = make([]float64, len(c.Servers))
	for i, s := range c.Servers {
		v.capNext[i] = s.HardCap(c.Cfg.ThermalWindow)
	}
}

// read fills v from the machine between ticks; prime must have run
// before the machine's first step.
func (v *fleetView) read(m *cluster.Machine, created int) {
	c := m.Controller()
	n := len(c.Servers)
	if len(v.temp) != n {
		v.temp = make([]float64, n)
		v.limit = make([]float64, n)
		v.consumed = make([]float64, n)
		v.tp = make([]float64, n)
		v.raw = make([]float64, n)
		v.hardCap = make([]float64, n)
		v.asleep = make([]bool, n)
		v.nodeTP = make([]float64, len(c.Tree.Nodes))
		v.live = make([]bool, len(c.Tree.Nodes))
		v.children = make([][]int, len(c.Tree.Nodes))
		for _, node := range c.Tree.Nodes {
			for _, ch := range node.Children {
				v.children[node.ID] = append(v.children[node.ID], ch.ID)
			}
		}
	}
	v.hardCap, v.capNext = v.capNext, v.hardCap
	secs := c.Cfg.TickSeconds
	v.apps = v.apps[:0]
	v.tickJoules, v.tickShed = 0, 0
	for i, s := range c.Servers {
		v.temp[i] = s.Thermal.T
		v.limit[i] = s.Thermal.Model.Limit
		v.consumed[i] = s.Consumed()
		v.tp[i] = s.TP()
		v.raw[i] = s.RawDemand()
		v.capNext[i] = s.HardCap(c.Cfg.ThermalWindow)
		v.asleep[i] = s.Asleep()
		v.nodeTP[s.Node.ID] = s.TP()
		v.live[s.Node.ID] = !s.Failed() && !s.Degraded()
		for _, a := range s.Apps.Apps {
			v.apps = append(v.apps, a.ID)
		}
		v.tickJoules += s.Consumed() * secs
		v.tickShed += s.Dropped() * secs
	}
	for _, p := range c.PMUViews() {
		v.nodeTP[p.Node] = p.TP
		v.live[p.Node] = !p.Failed && !p.Degraded
	}
	v.allocated = (c.Tick()-1)%c.Cfg.Eta1 == 0
	v.budgetLoss = c.Cfg.BudgetLoss
	v.created = created
	v.orphans = c.Orphans()
	v.maxLinkMessages = c.Stats.MaxLinkMessagesPerTick
	v.pingPongs = c.Stats.PingPongs
	e := c.EnergyTotals()
	v.joules, v.shed = e.Joules, e.ShedJoules
}

// fleetChecker holds what the checks carry from tick to tick.
type fleetChecker struct {
	// chaos selects the consumption bound the repository's invariant
	// tests assert under fault injection (hard cap, awake servers) in
	// place of the fail-free one (granted budget and raw demand).
	chaos bool
	// joules / shed are the benchmark's running energy sums.
	joules, shed float64
	seen         []bool
}

// check returns the first violated property of v, or nil.
func (fc *fleetChecker) check(v *fleetView) error {
	fc.joules += v.tickJoules
	fc.shed += v.tickShed

	for i := range v.temp {
		if !(v.temp[i] <= v.limit[i]+tol) {
			return fmt.Errorf("server %d at %.6f °C over its limit %.1f °C", i, v.temp[i], v.limit[i])
		}
		c := v.consumed[i]
		if !(c >= 0) {
			return fmt.Errorf("server %d consumed %v W", i, c)
		}
		if fc.chaos {
			if !v.asleep[i] && c > v.hardCap[i]+tol {
				return fmt.Errorf("server %d consumed %.6f W above its hard cap %.6f W", i, c, v.hardCap[i])
			}
		} else if c > v.tp[i]+tol || c > v.raw[i]+tol {
			return fmt.Errorf("server %d consumed %.6f W above budget %.6f W or demand %.6f W", i, c, v.tp[i], v.raw[i])
		}
	}

	// Under fault injection budgets change hands only when a supply
	// window opens, and only where the directive arrives: between
	// windows a repaired child still holds the budget it had before it
	// crashed, and during a link-loss window a child that missed its
	// directive holds its last one until its lease runs out.
	handed := !fc.chaos || (v.allocated && v.budgetLoss == 0)
	for id, ch := range v.children {
		if len(ch) == 0 || !handed || (fc.chaos && !v.live[id]) {
			continue
		}
		var granted float64
		for _, c := range ch {
			if !fc.chaos || v.live[c] {
				granted += v.nodeTP[c]
			}
		}
		if granted > v.nodeTP[id]+1e-3 {
			return fmt.Errorf("node %d handed its children %.6f W from a budget of %.6f W", id, granted, v.nodeTP[id])
		}
	}

	if len(fc.seen) != v.created {
		fc.seen = make([]bool, v.created)
	} else {
		clear(fc.seen)
	}
	for _, id := range v.apps {
		if id < 0 || id >= v.created {
			return fmt.Errorf("unknown application %d hosted", id)
		}
		if fc.seen[id] {
			return fmt.Errorf("application %d hosted twice", id)
		}
		fc.seen[id] = true
	}
	if got := len(v.apps) + v.orphans; got != v.created {
		return fmt.Errorf("%d applications hosted + %d orphaned, %d created", len(v.apps), v.orphans, v.created)
	}

	if v.maxLinkMessages > 2 {
		return fmt.Errorf("%d messages on one link in one tick (Section V-A bounds it by 2)", v.maxLinkMessages)
	}
	if v.pingPongs != 0 {
		return fmt.Errorf("%d ping-pong migrations", v.pingPongs)
	}

	if !near(v.joules, fc.joules) || !near(v.shed, fc.shed) {
		return fmt.Errorf("energy totals %.6f J consumed, %.6f J shed; own sums %.6f J, %.6f J",
			v.joules, v.shed, fc.joules, fc.shed)
	}
	return nil
}

// near reports whether a and b agree to a relative 1e-9 (both sums run
// in server order, so they differ only by the order of tick additions).
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkState decodes one /v1/state body and checks it holds every
// server, in order, at a tick no earlier than prev. It returns the
// body's tick.
func checkState(body []byte, servers, prev int) (int, error) {
	var st server.State
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, fmt.Errorf("state body: %w", err)
	}
	if st.Servers != servers || len(st.ServerStates) != servers {
		return 0, fmt.Errorf("state body has %d rows (num_servers %d), want %d", len(st.ServerStates), st.Servers, servers)
	}
	for i, row := range st.ServerStates {
		if row.Server != i {
			return 0, fmt.Errorf("state row %d names server %d", i, row.Server)
		}
	}
	if st.Tick < prev {
		return 0, fmt.Errorf("state tick went back from %d to %d", prev, st.Tick)
	}
	return st.Tick, nil
}

// checkJournal checks that the WAL holds exactly the acknowledged
// mutations, in acknowledgement order.
func checkJournal(got, acked []server.Mutation) error {
	for i := 0; i < len(got) && i < len(acked); i++ {
		if got[i] != acked[i] {
			return fmt.Errorf("wal record %d is %+v, acknowledged %+v", i, got[i], acked[i])
		}
	}
	if len(got) != len(acked) {
		return fmt.Errorf("wal holds %d mutations, %d were acknowledged", len(got), len(acked))
	}
	return nil
}

// sameBytes checks two renderings of a state are identical.
func sameBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: %d bytes against %d, first difference at byte %d", what, len(got), len(want), i)
}

// encodeState renders a State exactly as the daemon's handler does.
func encodeState(st server.State) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st) // a State always encodes; bytes.Buffer writes never fail
	return buf.Bytes()
}
