package main

import (
	"fmt"
	"runtime"
	"time"

	"willow/internal/cluster"
	"willow/internal/dist"
	"willow/internal/netsim"
	"willow/internal/queueing"
	"willow/internal/server"
)

// warmTicks is how many ticks each machine steps, checked but untimed,
// before its step times count: the first ticks fill caches and settle
// the smoothed demand. It is also the Spec's Warmup, so from the first
// timed tick on the machine runs its full per-tick bookkeeping.
const warmTicks = 8

// simCase is one offline workload: a Spec stepped tick by tick.
type simCase struct {
	spec server.Spec
	// chaos selects the fault-injection consumption bound in the checks.
	chaos bool
	// setups is how many times a run builds the machine to time set-up.
	setups int
	// round is how many timed ticks of each machine make one round. A
	// run steps whole rounds until its time is up and reports the median
	// round.
	round int
	// fleets, when set, makes every round step that many machines, each
	// built afresh from its own seed drawn from the run's seed, so every
	// round steps the same ticks of the same fleets and the figures of a
	// run average over fleets. When zero, one machine built from the
	// run's seed steps on from round to round, which suits a workload
	// whose ticks all cost about the same.
	fleets int
}

// seeds returns the Spec seeds of the machines a round steps.
func (sc simCase) seeds() []uint64 {
	if sc.fleets == 0 {
		return []uint64{sc.spec.Seed}
	}
	src := dist.NewSource(sc.spec.Seed)
	seeds := make([]uint64, sc.fleets)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	return seeds
}

// simMachine is one built machine and what its checks carry.
type simMachine struct {
	m       *cluster.Machine
	created int
	view    fleetView
	checker fleetChecker
	stepped int
}

func (sc simCase) build(seed uint64) (*simMachine, error) {
	spec := sc.spec
	spec.Seed = seed
	cfg, err := spec.Build()
	if err != nil {
		return nil, err
	}
	cfg.Core.Shards = runtime.GOMAXPROCS(0)
	m, err := cluster.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	created := 0
	for _, s := range m.Controller().Servers {
		created += s.Apps.Len()
	}
	sm := &simMachine{m: m, created: created, checker: fleetChecker{chaos: sc.chaos}}
	sm.view.prime(m)
	return sm, nil
}

// checkTick runs every between-ticks check on the machine.
func (sm *simMachine) checkTick() error {
	sm.view.read(sm.m, sm.created)
	if err := sm.checker.check(&sm.view); err != nil {
		return fmt.Errorf("tick %d: %w", sm.m.NextTick()-1, err)
	}
	return nil
}

// simRun is the state of one benchmark run over a sim workload.
type simRun struct {
	sc    simCase
	seeds []uint64
	res   *result
	sm    *simMachine
	n     int // servers
}

// setups builds the first machine several times, each after a forced
// collection, and reports the median process CPU time of a build and
// the live heap of the machine it keeps.
func (r *simRun) setups(k int) error {
	var times []float64
	for i := 0; i < k; i++ {
		r.sm = nil
		runtime.GC()
		t0 := now()
		sm, err := r.sc.build(r.seeds[0])
		if err != nil {
			return err
		}
		_, cpu := t0.since()
		times = append(times, cpu/1e3)
		r.sm = sm
	}
	r.n = len(r.sm.m.Controller().Servers)
	r.res.set("setup_s", median(times))
	r.res.set("live_heap_mb", liveHeapMB())
	return nil
}

// run steps whole rounds until the deadline has passed, checking every
// tick, and returns each round's timed ticks. A machine first steps
// warmTicks ticks, checked but untimed; then step steps and times each
// of the round's ticks.
func (r *simRun) run(seconds float64, step func(m *cluster.Machine, rs *roundStats)) ([]roundStats, error) {
	var rounds []roundStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(rounds) == 0 || time.Now().Before(deadline) {
		var rs roundStats
		for i, seed := range r.seeds {
			if r.sc.fleets > 0 && (len(rounds) > 0 || i > 0) {
				r.finish()
				r.sm = nil
				sm, err := r.sc.build(seed)
				if err != nil {
					return nil, err
				}
				r.sm = sm
				// Collect the previous machine now, not during timed ticks.
				runtime.GC()
			}
			for r.sm.stepped < warmTicks {
				r.sm.m.Step()
				r.checkTick()
			}
			for t := 0; t < r.sc.round; t++ {
				step(r.sm.m, &rs)
				r.checkTick()
			}
		}
		rounds = append(rounds, rs)
	}
	r.finish()
	return rounds, nil
}

// checkTick counts one stepped tick and checks the machine after it.
func (r *simRun) checkTick() {
	r.sm.stepped++
	r.res.attempted++
	if err := r.sm.checkTick(); err != nil {
		r.res.fail(err)
	}
}

// finish checks the machine's own account of the run.
func (r *simRun) finish() {
	if v := r.sm.m.Result().LimitViolationTicks; v != 0 {
		r.res.wrong(fmt.Errorf("the run reports %d limit-violation server-ticks", v))
	}
}

// plainStep steps one tick untraced and times it.
func plainStep(m *cluster.Machine, rs *roundStats) {
	t0 := now()
	m.Step()
	rs.add(t0.since())
}

func runSim(sc simCase, seconds float64, traced bool) (*result, error) {
	r := &simRun{sc: sc, seeds: sc.seeds(), res: newResult()}
	if err := r.setups(sc.setups); err != nil {
		return nil, err
	}
	if !traced {
		rounds, err := r.run(seconds, plainStep)
		if err != nil {
			return nil, err
		}
		setTimings(r.res, rounds, float64(r.n))
		r.res.note("timed %d rounds of %d ticks on each of %d machines of %d servers", len(rounds), sc.round, len(r.seeds), r.n)
		return r.res, nil
	}

	// Traced: each tick is traced or not by a fair coin, so the untraced
	// ticks are a baseline drawn from the same stretch of the run.
	tr := newTracer()
	lt := &simLayers{tr: tr}
	coin := dist.NewSource(sc.spec.Seed)
	var plain roundStats
	if _, err := r.run(seconds, func(m *cluster.Machine, _ *roundStats) {
		if coin.Float64() < 0.5 {
			m.Controller().Phases = nil
			plainStep(m, &plain)
			return
		}
		lt.step(m)
	}); err != nil {
		return nil, err
	}
	times := plain.wall
	ticks := float64(lt.ticks)
	ls := tr.layers()
	per := func(name string) float64 { return ls[name].TotalMS / ticks }
	r.res.set("cluster.step_ms", per("cluster.step"))
	r.res.set("core.observe_ms", per("core.observe"))
	r.res.set("core.allocate_ms", per("core.allocate"))
	r.res.set("core.consume_ms", per("core.consume"))
	r.res.set("core.imbalance_ms", per("core.imbalance"))
	r.res.set("netsim.tick_ms", per("netsim.tick"))
	r.res.set("queueing.observe_ms", per("queueing.observe"))
	r.res.set("core.rest_ms", ls["cluster.step"].SelfMS/ticks-per("core.imbalance")-per("netsim.tick")-per("queueing.observe"))
	r.res.set("core.migrations_per_tick", float64(lt.migrations)/ticks)
	r.res.set("core.restarts_per_tick", float64(lt.restarts)/ticks)
	r.res.set("core.messages_per_tick", float64(lt.messages)/ticks)
	r.res.set("runtime.alloc_bytes_per_server_tick", float64(lt.allocBytes)/(ticks*float64(r.n)))
	r.res.set("runtime.gc_cycles", float64(lt.gcCycles))
	r.res.set("trace.overhead_pct", 100*(per("cluster.step")/(sum(times)/float64(len(times)))-1))
	r.res.note("traced %d ticks, %d untraced", lt.ticks, len(times))
	r.res.tr = tr
	return r.res, nil
}

// simLayers times one traced tick: Machine.Step with the controller's
// phase observer attached, then replays of the per-tick bookkeeping the
// machine does after the controller step (netsim traffic, the queueing
// tracker, the level imbalance) on benchmark-owned instances fed the
// same utilizations, so each layer gets its own span.
type simLayers struct {
	tr     *tracer
	parent int

	// owner is the machine the replay instances below were built for.
	owner *cluster.Machine
	net   *netsim.Network
	lat   *queueing.Tracker

	ticks                          int
	migrations, restarts, messages int64
	allocBytes, gcCycles           uint64
}

// ObservePhase implements core.PhaseObserver.
func (l *simLayers) ObservePhase(phase string, seconds float64) {
	l.tr.add("core."+phase, l.parent, time.Duration(seconds*float64(time.Second)))
}

func (l *simLayers) step(m *cluster.Machine) {
	ctrl := m.Controller()
	if l.owner != m {
		cfg := m.Config()
		net, err := netsim.New(ctrl.Tree, cfg.Network)
		if err != nil {
			panic(err) // the machine was built from the same network config
		}
		slo := cfg.SLO
		if slo.Service <= 0 {
			slo = queueing.SLO{Service: 1, Target: 10}
		}
		l.owner, l.net, l.lat = m, net, queueing.NewTracker(slo)
	}
	ctrl.Phases = l
	st := ctrl.Stats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.parent = l.tr.begin("cluster.step", 0)
	m.Step()
	l.tr.end(l.parent)
	runtime.ReadMemStats(&after)
	l.allocBytes += after.TotalAlloc - before.TotalAlloc
	l.gcCycles += uint64(after.NumGC - before.NumGC)
	l.ticks++
	l.migrations += int64(ctrl.Stats.DemandMigrations + ctrl.Stats.ConsolidationMigrations -
		st.DemandMigrations - st.ConsolidationMigrations)
	l.restarts += int64(ctrl.Stats.Restarts - st.Restarts)
	l.messages += ctrl.Stats.MessagesUp + ctrl.Stats.MessagesDown - st.MessagesUp - st.MessagesDown

	id := l.tr.begin("netsim.tick", 0)
	for i, s := range ctrl.Servers {
		l.net.RecordServerTraffic(i, s.Utilization())
	}
	l.net.EndTick()
	l.tr.end(id)

	id = l.tr.begin("queueing.observe", 0)
	for _, s := range ctrl.Servers {
		if s.Asleep() {
			continue
		}
		served := s.Consumed() - s.Power.Static
		if served < 0 {
			served = 0
		}
		l.lat.Observe(s.Utilization(), served, s.Dropped())
	}
	l.tr.end(id)

	id = l.tr.begin("core.imbalance", 0)
	for level := 0; level <= ctrl.Tree.Height; level++ {
		ctrl.LevelImbalance(level)
	}
	l.tr.end(id)
}

// liveHeapMB is the heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
