package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"willow/internal/dist"
	"willow/internal/obs"
	"willow/internal/server"
)

// Serve workloads: an in-process willowd — server.New plus
// server.NewHandler on a loopback listener — ticking at a fixed period
// while one closed-loop client works it over HTTP.

const (
	readPeriod  = 50 * time.Millisecond // well above the ~12 ms tick of 10k servers
	writePeriod = 10 * time.Millisecond

	readRound   = 20  // requests in a round of serve-10k-read, about a second
	writePasses = 200 // passes over the 18 servers in a round of serve-18-write
)

// rig is one running daemon and its HTTP front end.
type rig struct {
	d      *server.Daemon
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// startRig builds the daemon, binds a loopback listener and waits for
// the first 200 from /healthz.
func startRig(spec server.Spec, wrap func(http.Handler) http.Handler) (*rig, error) {
	d, err := server.New(spec)
	if err != nil {
		return nil, err
	}
	r := &rig{d: d, served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := server.NewHandler(d)
	if wrap != nil {
		h = wrap(h)
	}
	r.srv = &http.Server{Handler: h}
	r.base = "http://" + ln.Addr().String()
	go func() { r.served <- r.srv.Serve(ln) }()
	r.client = newClient()
	resp, err := r.client.Get(r.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// newClient returns a client that holds at most one loopback connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// stop ends event streams, shuts the HTTP server down and waits for it.
func (r *rig) stop() error {
	r.d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	return err
}

// get fetches a path and returns the body of a 200.
func (r *rig) get(path string) ([]byte, error) {
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s answered %s", path, resp.Status)
	}
	return body, nil
}

// pacer ticks the daemon at a fixed period until stopped. Untraced, it
// is the daemon's own Daemon.Run; traced, the benchmark calls
// Daemon.Step on the same period and times it, along with the calls a
// traced run adds between ticks.
type pacer struct {
	cancel context.CancelFunc
	done   chan error
}

func startPacer(d *server.Daemon, period time.Duration, traced func()) *pacer {
	ctx, cancel := context.WithCancel(context.Background())
	dr := &pacer{cancel: cancel, done: make(chan error, 1)}
	go func() {
		if traced == nil {
			dr.done <- d.Run(ctx, period)
			return
		}
		tk := time.NewTicker(period)
		defer tk.Stop()
		for {
			select {
			case <-ctx.Done():
				dr.done <- ctx.Err()
				return
			case <-tk.C:
				traced()
			}
		}
	}()
	return dr
}

// stop ends pacing and waits until the daemon rests at a tick boundary.
func (dr *pacer) stop() error {
	dr.cancel()
	if err := <-dr.done; err != context.Canceled {
		return fmt.Errorf("tick pacer: %v", err)
	}
	return nil
}

// serveRun is one benchmark run over a serve workload.
type serveRun struct {
	spec    server.Spec
	period  time.Duration
	dir     string
	res     *result
	rig     *rig
	tracing atomic.Pointer[tracer]
}

// setups starts the daemon k times, each after a forced collection,
// reports the median process CPU time of a start and the live heap, and
// keeps the last one running.
func (s *serveRun) setups(k int, traced bool) error {
	var wrap func(http.Handler) http.Handler
	if traced {
		wrap = s.timedHandler
	}
	var times []float64
	for i := 0; i < k; i++ {
		if s.rig != nil {
			if err := s.rig.stop(); err != nil {
				return err
			}
			s.rig = nil
		}
		runtime.GC()
		t0 := now()
		r, err := startRig(s.spec, wrap)
		if err != nil {
			return err
		}
		_, cpu := t0.since()
		times = append(times, cpu/1e3)
		s.rig = r
	}
	s.res.set("setup_s", median(times))
	s.res.set("live_heap_mb", liveHeapMB())
	return nil
}

// timedHandler wraps the daemon's handler with server-side spans for
// the two routes the workloads drive, while a tracer is active.
func (s *serveRun) timedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tr := s.tracing.Load()
		var name string
		switch req.URL.Path {
		case "/v1/state":
			name = "server.state_handler"
		case "/v1/demand":
			name = "server.demand_handler"
		}
		if tr == nil || name == "" {
			h.ServeHTTP(w, req)
			return
		}
		id := tr.begin(name, 0)
		h.ServeHTTP(w, req)
		tr.end(id)
	})
}

// closedLoop issues one request at a time, op(k) for k = 0, 1, …, in
// rounds of round requests, until the deadline has passed, so every run
// attempts whole rounds. op returns the request's wall and process CPU
// milliseconds, or an error when the request failed or its reply failed
// a check. closedLoop returns each round's successful requests.
func (s *serveRun) closedLoop(seconds float64, round int, op func(k int) (wallMS, cpuMS float64, err error)) []roundStats {
	var rounds []roundStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; len(rounds) == 0 || time.Now().Before(deadline); {
		var rs roundStats
		for end := k + round; k < end; k++ {
			w, c, err := op(k)
			s.res.attempted++
			if err != nil {
				s.res.fail(err)
				continue
			}
			rs.add(w, c)
		}
		rounds = append(rounds, rs)
	}
	return rounds
}

// untraced measures with the daemon's own Run ticking, and sets the
// end-to-end metrics from the client's requests.
func (s *serveRun) untraced(seconds float64, loop func(seconds float64) []roundStats) error {
	dr := startPacer(s.rig.d, s.period, nil)
	rounds := loop(seconds)
	if err := dr.stop(); err != nil {
		return err
	}
	setTimings(s.res, rounds, 1)
	return nil
}

// traced runs the measuring loop twice: an untraced half for the
// overhead baseline, then a half with the tracer active and the
// benchmark driving the ticks, and sets the per-layer metrics. extra
// runs on the pacer after every traced tick. It returns how many
// events the hub published in the traced half.
func (s *serveRun) traced(seconds float64, loop func(seconds float64) []roundStats, extra func(tr *tracer, tick int)) (int64, error) {
	dr := startPacer(s.rig.d, s.period, nil)
	base := pool(loop(seconds / 2)).wall
	if err := dr.stop(); err != nil {
		return 0, err
	}

	tr := newTracer()
	d := s.rig.d
	pub0, _, _ := d.Hub().Stats()
	ticks, stateBytes := 0, 0
	dr = startPacer(d, s.period, func() {
		id := tr.begin("server.step", 0)
		d.Step()
		tr.end(id)
		if ticks%4 == 0 {
			id = tr.begin("server.state_copy", 0)
			st := d.State()
			tr.end(id)
			id = tr.begin("server.state_encode", 0)
			stateBytes += len(encodeState(st))
			tr.end(id)
		}
		extra(tr, ticks)
		ticks++
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.tracing.Store(tr)
	lat := pool(loop(seconds / 2)).wall
	s.tracing.Store(nil)
	runtime.ReadMemStats(&after)
	if err := dr.stop(); err != nil {
		return 0, err
	}
	pub1, _, _ := d.Hub().Stats()

	ls := tr.layers()
	mean := func(name string) float64 {
		if l := ls[name]; l.Count > 0 {
			return l.TotalMS / float64(l.Count)
		}
		return 0
	}
	s.res.set("server.step_ms", mean("server.step"))
	s.res.set("server.state_copy_ms", mean("server.state_copy"))
	s.res.set("server.state_encode_ms", mean("server.state_encode"))
	if n := ls["server.state_encode"].Count; n > 0 {
		s.res.set("server.state_bytes", float64(stateBytes)/float64(n))
	}
	s.res.set("server.state_handler_ms", mean("server.state_handler"))
	s.res.set("server.demand_handler_ms", mean("server.demand_handler"))
	s.res.set("server.scale_demand_ms", mean("server.scale_demand"))
	s.res.set("server.wal_append_ms", mean("server.wal_append"))
	if ticks > 0 {
		s.res.set("server.hub_published_per_tick", float64(pub1-pub0)/float64(ticks))
	}
	s.res.set("runtime.alloc_bytes_per_request", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(lat)))
	s.res.set("trace.overhead_pct", 100*(median(lat)/median(base)-1))
	s.res.tr = tr
	shed, err := s.gateShed()
	if err != nil {
		return 0, err
	}
	s.res.set("server.gate_shed", shed)
	return pub1 - pub0, nil
}

// gateShed reads the admission gate's shed counter from /metrics.
func (s *serveRun) gateShed() (float64, error) {
	body, err := s.rig.get("/metrics")
	if err != nil {
		return 0, err
	}
	sc, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	v, ok := sc.Value("willow_admission_shed_total")
	if !ok {
		return 0, fmt.Errorf("/metrics has no willow_admission_shed_total")
	}
	return v, nil
}

func newServeRun(spec server.Spec, period time.Duration) (*serveRun, error) {
	dir := filepath.Join(buildDir(), "run", strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &serveRun{spec: spec, period: period, dir: dir, res: newResult()}, nil
}

// runServeRead: one closed-loop client reads /v1/state while another
// follows /v1/events, against 10k servers ticking every readPeriod.
func runServeRead(seed uint64, seconds float64, traced bool) (*result, error) {
	spec := server.Spec{
		Util: 0.5, Fanout: []int{4, 5, 5, 100}, Ticks: 1 << 30, Warmup: warmTicks,
		Seed: seed, Supply: "constant",
	}
	s, err := newServeRun(spec, readPeriod)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	if err := s.setups(15, traced); err != nil {
		return nil, err
	}
	r := s.rig
	n := spec.Servers()

	// The events follower: counts every NDJSON line it is delivered.
	var events atomic.Int64
	evCtx, evCancel := context.WithCancel(context.Background())
	defer evCancel()
	evDone := make(chan error, 1)
	evReq, err := http.NewRequestWithContext(evCtx, http.MethodGet, r.base+"/v1/events", nil)
	if err != nil {
		return nil, err
	}
	evClient := newClient()
	go func() {
		resp, err := evClient.Do(evReq)
		if err != nil {
			evDone <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			events.Add(1)
		}
		evDone <- nil
	}()

	prev := 0
	loop := func(secs float64) []roundStats {
		return s.closedLoop(secs, readRound, func(int) (float64, float64, error) {
			t0 := now()
			body, err := r.get("/v1/state")
			w, c := t0.since()
			if err != nil {
				return 0, 0, err
			}
			tick, err := checkState(body, n, prev)
			if err != nil {
				return 0, 0, err
			}
			prev = tick
			return w, c, nil
		})
	}

	if !traced {
		if err := s.untraced(seconds, loop); err != nil {
			return nil, err
		}
	} else {
		ev0 := events.Load()
		pub, err := s.traced(seconds, loop, func(*tracer, int) {})
		if err != nil {
			return nil, err
		}
		if pub > 0 {
			s.res.set("server.hub_delivered_ratio", float64(events.Load()-ev0)/float64(pub))
		}
	}

	// Ticking has stopped at tick T. The served state must equal that of
	// a daemon built separately from the same Spec and stepped T ticks:
	// reads never perturb the run.
	final, err := r.get("/v1/state")
	if err != nil {
		return nil, err
	}
	evCancel()
	if err := r.stop(); err != nil {
		return nil, err
	}
	if err := <-evDone; err != nil && evCtx.Err() == nil {
		return nil, fmt.Errorf("events stream: %w", err)
	}
	evClient.CloseIdleConnections()
	tick, err := checkState(final, n, prev)
	if err != nil {
		s.res.wrong(err)
		return s.res, nil
	}
	oracle, err := server.New(spec)
	if err != nil {
		return nil, err
	}
	oracle.StepN(tick)
	if err := sameBytes(fmt.Sprintf("state at tick %d against a fresh daemon", tick), final, encodeState(oracle.State())); err != nil {
		s.res.wrong(err)
	}
	oracle.Close()
	s.res.note("ticks stopped at %d; %d events delivered to the follower", tick, events.Load())
	return s.res, nil
}

// runServeWrite: one closed-loop client posts /v1/demand round the 18
// servers, alternating factor f and 1/f. The daemon runs without a WAL:
// fsync time on the reference box's disk drifts between runs by more
// than any bound this benchmark could hold (see README.md), so the WAL's
// append is timed in the traced run and checked after the run instead.
func runServeWrite(seed uint64, seconds float64, traced bool) (*result, error) {
	spec := server.Spec{
		Util: 0.5, Fanout: []int{2, 3, 3}, Ticks: 1 << 30, Warmup: warmTicks,
		Seed: seed, Supply: "constant", Hotzone: true,
	}
	s, err := newServeRun(spec, writePeriod)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	if err := s.setups(31, traced); err != nil {
		return nil, err
	}
	r := s.rig
	n := spec.Servers()

	// Inputs from the seed: the order servers are visited in, and f.
	src := dist.NewSource(seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	f := 1.1 + 0.4*src.Float64()

	var acked []server.Mutation
	mutation := func(k int) (int, float64) {
		factor := f
		if (k/n)%2 == 1 {
			factor = 1 / f
		}
		return order[k%n], factor
	}
	loop := func(secs float64) []roundStats {
		// A round is an even number of passes over the servers,
		// alternating f and 1/f on each.
		return s.closedLoop(secs, writePasses*n, func(k int) (float64, float64, error) {
			srv, factor := mutation(k)
			body := fmt.Sprintf(`{"server":%d,"factor":%s}`, srv, strconv.FormatFloat(factor, 'g', -1, 64))
			t0 := now()
			resp, err := r.client.Post(r.base+"/v1/demand", "application/json", bytes.NewBufferString(body))
			if err != nil {
				return 0, 0, err
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			w, c := t0.since()
			if err != nil {
				return 0, 0, err
			}
			if resp.StatusCode != http.StatusOK {
				return 0, 0, fmt.Errorf("POST /v1/demand answered %s: %s", resp.Status, bytes.TrimSpace(reply))
			}
			var ack struct {
				Tick   int     `json:"tick"`
				Server int     `json:"server"`
				Factor float64 `json:"factor"`
			}
			if err := json.Unmarshal(reply, &ack); err != nil {
				return 0, 0, fmt.Errorf("demand reply: %w", err)
			}
			if ack.Server != srv || ack.Factor != factor {
				return 0, 0, fmt.Errorf("demand reply %s for server %d factor %v", reply, srv, factor)
			}
			acked = append(acked, server.Mutation{Tick: ack.Tick, Kind: "demand", Server: srv, Factor: factor})
			return w, c, nil
		})
	}

	if !traced {
		if err := s.untraced(seconds, loop); err != nil {
			return nil, err
		}
	} else {
		// The traced half also times Daemon.ScaleDemand on a second,
		// unserved daemon and WAL.Append on a benchmark-owned WAL in
		// the same directory, once per tick.
		side, err := server.New(spec)
		if err != nil {
			return nil, err
		}
		defer side.Close()
		sideWAL, err := server.CreateWAL(filepath.Join(s.dir, "side.wal"), spec, nil)
		if err != nil {
			return nil, err
		}
		defer sideWAL.Close()
		var sideErr error
		if _, err := s.traced(seconds, loop, func(tr *tracer, tick int) {
			srv, factor := mutation(tick)
			id := tr.begin("server.scale_demand", 0)
			_, err := side.ScaleDemand(srv, factor)
			tr.end(id)
			id = tr.begin("server.wal_append", 0)
			werr := sideWAL.Append(server.Mutation{Tick: tick, Kind: "demand", Server: srv, Factor: factor})
			tr.end(id)
			if sideErr == nil && (err != nil || werr != nil) {
				sideErr = fmt.Errorf("side calls: %v, %v", err, werr)
			}
		}); err != nil {
			return nil, err
		}
		if sideErr != nil {
			return nil, sideErr
		}
	}

	// Ticking has stopped at tick T. The daemon's journal must hold
	// exactly the acknowledged mutations, in order. A WAL written from
	// that journal must read back the same, and recovery from it,
	// stepped to T, must reproduce the live state byte for byte.
	final, err := r.get("/v1/state")
	if err != nil {
		return nil, err
	}
	var live server.State
	if err := json.Unmarshal(final, &live); err != nil {
		return nil, fmt.Errorf("final state: %w", err)
	}
	journal := r.d.Snapshot().Journal
	if err := r.stop(); err != nil {
		return nil, err
	}
	if err := checkJournal(journal, acked); err != nil {
		s.res.wrong(fmt.Errorf("daemon journal: %w", err))
	}
	walPath := filepath.Join(s.dir, "willow.wal")
	w, err := server.CreateWAL(walPath, spec, journal)
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	w, st, err := server.OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := checkJournal(st.Mutations, acked); err != nil {
		s.res.wrong(err)
	}
	rec, recWAL, info, err := server.Recover("", walPath)
	if err != nil {
		return nil, err
	}
	rec.StepN(live.Tick - info.Tick)
	if err := sameBytes(fmt.Sprintf("state at tick %d recovered from %d wal records", live.Tick, info.Mutations),
		final, encodeState(rec.State())); err != nil {
		s.res.wrong(err)
	}
	rec.Close()
	if err := recWAL.Close(); err != nil {
		return nil, err
	}
	s.res.note("ticks stopped at %d; %d mutations acknowledged", live.Tick, len(acked))
	return s.res, nil
}
