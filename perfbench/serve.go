package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// The serve-http workload: a two-shard serve.Server behind HTTPHandler on
// a loopback listener in this process, driven open-loop by load.Run
// through serve.Client at one fixed Poisson rate.
const (
	serveShards = 2
	// serveRate is the offered load in ops/s: about a fifth of the
	// saturation rate -probe-saturation measured on the reference host.
	// Half of it put the service near saturation whenever the host ran
	// slow, and its latency then spread too wide to gate on (README.md).
	serveRate = 4000
	// serveTenants spread ops over this many 4096-page regions, routed to
	// shards by tenant boundaries.
	serveTenants     = 4
	serveRegionPages = 4096
	serveReadFrac    = 0.3
	servePages       = 4
	// serveDeadline is far beyond any latency at the fixed rate, so a
	// scheduling hiccup of the host never turns into a timed-out op.
	serveDeadline = 30 * time.Second
	// serveSteps is how many equal load steps the timed section runs.
	serveSteps = 5
)

// serveStack is one server and, unless in-process, its HTTP front.
type serveStack struct {
	srv    *serve.Server
	devs   []*ssd.Device
	pols   []*timedPolicy
	sub    load.Submitter
	hs     *http.Server
	served chan error
	tr     *http.Transport
}

// startServe builds a server (and an HTTP front over loopback unless
// inproc). With timed set, every shard's policy is wrapped in a
// timedPolicy.
func startServe(timed bool, bias time.Duration, inproc bool) (*serveStack, error) {
	st := &serveStack{}
	var bounds []int64
	for t := 1; t <= serveTenants; t++ {
		bounds = append(bounds, int64(t)*serveRegionPages)
	}
	var mu sync.Mutex // NewPolicy/NewDevice run in New, but guard anyway
	srv, err := serve.New(serve.Config{
		Shards:             serveShards,
		Sharing:            sim.SharingEqual,
		TotalCapacityPages: capacityPages,
		NewPolicy: func(_, capPages int) cache.Policy {
			pol := core.New(capPages)
			if !timed {
				return pol
			}
			tp := &timedPolicy{ReqBlock: pol, bias: bias}
			mu.Lock()
			st.pols = append(st.pols, tp)
			mu.Unlock()
			return tp
		},
		NewDevice: func(int) (*ssd.Device, error) {
			dev, err := ssd.New(ssd.ScaledParams(deviceDivisor))
			if err == nil {
				mu.Lock()
				st.devs = append(st.devs, dev)
				mu.Unlock()
			}
			return dev, err
		},
		TenantBoundaries:  bounds,
		DefaultDeadlineNs: int64(serveDeadline),
	})
	if err != nil {
		return nil, err
	}
	st.srv = srv
	if inproc {
		st.sub = srv
		return st, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	st.hs = &http.Server{Handler: srv.HTTPHandler(nil)}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	n := runtime.GOMAXPROCS(0)
	st.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	st.sub = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: st.tr}}
	return st, nil
}

// stop shuts the HTTP front (waiting for its goroutines) and drains the
// server.
func (st *serveStack) stop() (serve.DrainReport, error) {
	var err error
	if st.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = st.hs.Shutdown(ctx)
		cancel()
		if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		st.tr.CloseIdleConnections()
	}
	return st.srv.Drain(), err
}

// cachedPages sums the shards' buffered pages (every buffered page is
// dirty: Req-block buffers writes only).
func cachedPages(s serve.Stats) int64 {
	var n int64
	for _, sh := range s.Shards {
		n += sh.CachedPages
	}
	return n
}

// recorder wraps a submitter and keeps, for every op, the wall time of
// the Submit call (send to response) and the simulated outcome of every
// served op.
type recorder struct {
	inner        load.Submitter
	mu           sync.Mutex
	callNs       []int64
	hits, misses int64
	simLat       []int64
}

func (r *recorder) Submit(op serve.Op) (serve.Response, error) {
	t0 := time.Now()
	resp, err := r.inner.Submit(op)
	d := int64(time.Since(t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.callNs = append(r.callNs, d)
	if err == nil && resp.Outcome == serve.OutcomeOK {
		r.hits += int64(resp.Hits)
		r.misses += int64(resp.Misses)
		r.simLat = append(r.simLat, resp.SimLatencyNs)
	}
	return resp, err
}

// callQuantile returns the exact q-quantile of the recorded call times in
// µs.
func (r *recorder) callQuantile(q float64) float64 {
	return float64(quantile(r.callNs, q)) / 1e3
}

// loadProfile is the fixed open-loop profile, split into steps.
func loadProfile(cfg config, seed int64, step time.Duration, steps int) load.Profile {
	ramp := make([]float64, steps)
	for i := range ramp {
		ramp[i] = 1
	}
	rate := float64(serveRate)
	if cfg.short {
		rate = 2000
	}
	return load.Profile{
		Arrival:      "poisson",
		RatePerSec:   rate,
		Tenants:      serveTenants,
		RegionPages:  serveRegionPages,
		ReadFraction: serveReadFrac,
		Pages:        servePages,
		StepNs:       int64(step),
		Ramp:         ramp,
		Seed:         seed,
	}
}

// checkSteps runs the per-step outcome checks and counts the ops. rec
// counted the Submit calls apart from load.Run's tallies.
func checkSteps(rep *report, what string, res *load.Result, rec *recorder) {
	var sent int64
	for i, s := range res.Steps {
		sent += s.Sent
		outcomes := s.OK + s.Shed + s.Rejected + s.Timeout + s.ReadOnly + s.Draining + s.Errors
		rep.check(outcomes == s.Sent, "%s step %d: %d ops sent, %d responses", what, i+1, s.Sent, outcomes)
		rep.check(s.Skipped == 0, "%s step %d: %d ops skipped over the outstanding cap", what, i+1, s.Skipped)
		rep.check(s.Errors == 0 && s.Timeout == 0 && s.Rejected == 0 && s.ReadOnly == 0 && s.Draining == 0 && s.Shed == 0,
			"%s step %d: %d errors, %d timeouts, %d rejects, %d read-only, %d draining, %d shed at the fixed rate",
			what, i+1, s.Errors, s.Timeout, s.Rejected, s.ReadOnly, s.Draining, s.Shed)
		rep.attempted += s.Sent + s.Skipped
		rep.failed += s.Sent + s.Skipped - s.OK - s.Shed
	}
	rep.check(int64(len(rec.callNs)) == sent, "%s: load.Run sent %d ops, %d Submit calls returned", what, sent, len(rec.callNs))
}

// stepLatencies returns the median over steps of P50 and P99 in µs, and
// the sample count.
func stepLatencies(res *load.Result) (p50, p99 float64, samples int64) {
	var a, b []float64
	for _, s := range res.Steps {
		a = append(a, float64(s.P50Ns)/1e3)
		b = append(b, float64(s.P99Ns)/1e3)
		samples += s.OK + s.Shed
	}
	return median(a), median(b), samples
}

// finishServe stops the stack and runs the server-side checks: no op
// errored, timed out or was turned away, and the drain accounts for every
// buffered page. It returns the drain report.
func finishServe(rep *report, st *serveStack, what string) (serve.DrainReport, serve.Stats, error) {
	before := st.srv.Stats()
	dr, err := st.stop()
	if err != nil {
		return dr, before, err
	}
	after := st.srv.Stats()
	rep.check(after.Errors == 0 && after.TimeoutsQueued == 0 && after.TimeoutsService == 0 && after.Rejected == 0,
		"%s: server counted %d errors, %d+%d timeouts, %d rejects", what, after.Errors, after.TimeoutsQueued, after.TimeoutsService, after.Rejected)
	rep.check(after.DrainRejected == 0, "%s: drain turned away %d ops", what, after.DrainRejected)
	rep.check(!dr.Degraded, "%s: a shard degraded", what)
	buffered := cachedPages(before)
	rep.check(dr.DrainedPages+dr.RemainingDirtyPages == buffered,
		"%s: drain destaged %d and left %d pages of %d buffered", what, dr.DrainedPages, dr.RemainingDirtyPages, buffered)
	rep.logf("%s: drain destaged %d pages, left %d dirty of %d buffered", what, dr.DrainedPages, dr.RemainingDirtyPages, buffered)
	return dr, after, nil
}

// runServe measures the serve-http workload.
func runServe(cfg config, rep *report) error {
	var warm, step time.Duration
	warm, step = time.Second, cfg.budget()/serveSteps
	if cfg.short {
		warm = 200 * time.Millisecond
	}
	p := loadProfile(cfg, cfg.seed, step, serveSteps)
	logOptions(rep, map[string]any{
		"entry":          "serve.Server behind HTTPHandler on 127.0.0.1, serve.Client, load.Run",
		"shards":         serveShards,
		"sharing":        "EQUAL",
		"policy":         "Req-block (core.New)",
		"capacity_pages": capacityPages,
		"device_divisor": deviceDivisor,
		"pace":           false,
		"deadline":       serveDeadline.String(),
		"max_conns":      runtime.GOMAXPROCS(0),
		"load":           p,
		"warmup":         warm.String(),
	})
	if cfg.trace {
		return traceServe(cfg, rep, p)
	}

	var setups []float64
	var st *serveStack
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = startServe(false, 0, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			if _, err := st.stop(); err != nil {
				return err
			}
		}
	}
	rep.set("setup_s", median(setups))

	rec := &recorder{inner: st.sub}
	wres, err := load.Run(rec, loadProfile(cfg, cfg.seed^0x5eed, warm, 1))
	if err != nil {
		return err
	}
	checkSteps(rep, "warm-up", wres, rec)
	rec.callNs, rec.hits, rec.misses, rec.simLat = nil, 0, 0, nil
	runtime.GC()

	c0 := processCPU()
	res, err := load.Run(rec, p)
	cpu := processCPU() - c0
	if err != nil {
		return err
	}
	checkSteps(rep, "timed", res, rec)
	p50, p99, samples := stepLatencies(res)
	var served, elapsed float64
	for _, s := range res.Steps {
		served += float64(s.OK+s.Shed) * servePages
		elapsed += float64(s.ElapsedNs) / 1e9
	}
	rep.set("host_pages_per_s", served/elapsed)
	rep.logf("process CPU %v over the timed steps, %.0f ns per served page", cpu, float64(cpu)/served)
	rep.logf("timed steps %d of %v: %d calls, call p50 %.1f us, p99 %.1f us; from scheduled arrival (median over steps) p50 %.1f us, p99 %.1f us (%d samples); per step:\n%s",
		len(res.Steps), step, len(rec.callNs), rec.callQuantile(0.5), rec.callQuantile(0.99), p50, p99, samples, res.Format())

	var respSum int64
	for _, l := range rec.simLat {
		respSum += l
	}
	rep.set("sim_hit_ratio", ratio(float64(rec.hits), float64(rec.hits+rec.misses)))
	rep.set("sim_resp_mean_ms", ratio(float64(respSum), float64(len(rec.simLat)))/1e6)
	rep.set("sim_resp_p999_ms", float64(quantile(rec.simLat, 0.999))/1e6)

	if _, _, err := finishServe(rep, st, "timed"); err != nil {
		return err
	}
	var flash int64
	for _, d := range st.devs {
		c := d.Counters()
		flash += c.FlashWrites + c.GCMigrations
	}
	rep.set("sim_flash_pages", float64(flash))
	return nil
}

// traceServe is the serve-http traced run: the same schedule over HTTP
// untraced, over HTTP with timed policies and a stats poller, and against
// the in-process Server.Submit.
func traceServe(cfg config, rep *report, p load.Profile) error {
	bias := spanBias()
	steps := len(p.Ramp)
	p.StepNs /= 3 // three passes share the measuring time
	type pass struct {
		name          string
		timed, inproc bool
		p50, p99      float64 // Submit call times
		schedP50      float64 // load.Run's, from scheduled arrival
	}
	passes := []*pass{{name: "http"}, {name: "http-traced", timed: true}, {name: "inproc", inproc: true}}
	for _, ps := range passes {
		st, err := startServe(ps.timed, bias, ps.inproc)
		if err != nil {
			return err
		}
		var peak int64
		stopPoll := make(chan struct{})
		polled := make(chan struct{})
		go func() {
			defer close(polled)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					if ps.timed {
						peak = max(peak, st.srv.Stats().QueueDepth)
					}
				}
			}
		}()
		rec := &recorder{inner: st.sub}
		res, err := load.Run(rec, p)
		close(stopPoll)
		<-polled
		if err != nil {
			_, _ = st.stop() // the load error is the one to report
			return err
		}
		checkSteps(rep, ps.name, res, rec)
		ps.schedP50, _, _ = stepLatencies(res)
		ps.p50, ps.p99 = rec.callQuantile(0.5), rec.callQuantile(0.99)
		rep.logf("%s pass (%d steps):\n%s", ps.name, steps, res.Format())
		dr, stats, err := finishServe(rep, st, ps.name)
		if err != nil {
			return err
		}
		if !ps.timed {
			continue
		}
		var stats2 policyStats
		for _, tp := range st.pols {
			stats2.add(tp)
		}
		stats2.setCore(rep, rec.hits+rec.misses, rec.hits)
		var c ssd.Counters
		var gc gcSched
		var bp int64
		for _, d := range st.devs {
			addCounters(&c, d.Counters())
			g := d.GCSchedStats()
			gc.jobs += g.JobsStarted
			gc.resumes += g.Resumes
			gc.costDeferred += g.CostDeferred
			_, ns := d.BackPressureStalls()
			bp += ns
		}
		setDevice(rep, c, gc, bp)
		rep.set("serve.window_waits", float64(stats.WindowWaits))
		rep.set("serve.queue_depth_peak", float64(peak))
		rep.set("serve.drain_dirty_left", float64(dr.RemainingDirtyPages))
	}
	plain, traced, inproc := passes[0], passes[1], passes[2]
	rep.set("serve.http_p50_us", plain.p50)
	rep.set("serve.http_p99_us", plain.p99)
	rep.set("load.sched_p50_us", plain.schedP50)
	rep.set("serve.submit_p50_us", inproc.p50)
	rep.set("serve.submit_p99_us", inproc.p99)
	rep.set("serve.http_overhead_p50_us", plain.p50-inproc.p50)
	rep.set("bench.trace_overhead", ratio(traced.p50, plain.p50)-1)
	return nil
}

// probeSaturation drives the HTTP service over a rate ramp and prints
// goodput and latency per step, to locate the saturation rate that
// serveRate is derived from.
func probeSaturation(cfg config, log io.Writer) error {
	st, err := startServe(false, 0, false)
	if err != nil {
		return err
	}
	p := loadProfile(cfg, cfg.seed, 3*time.Second, 1)
	p.RatePerSec = 1000
	p.Ramp = []float64{1, 2, 4, 6, 8, 10, 12, 16, 20}
	res, err := load.Run(st.sub, p)
	if _, serr := st.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	fmt.Fprint(log, res.Format())
	return nil
}
