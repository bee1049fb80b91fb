package main

import (
	"reflect"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// The traced run measures each layer from outside the program. Per-call
// spans wrap the policy (timedPolicy); the other layers are separated by
// subtraction between whole passes over the same input:
//
//	source alone            T_src
//	engine + no-op policy   T_nop   engine self = T_nop − T_src
//	bare engine             T_bare  device self = T_bare − T_nop − policy spans
//	replay.RunSource        T_rs    observers   = T_rs − T_bare
//	RunSharded(shards=1)    T_sh1   pipeline    = CPU(T_sh1) − CPU(T_rs)
//	RunSharded(shards=2)    T_sh2   speedup     = T_sh1 / T_sh2
//
// so source + engine self + policy + device + observers = T_rs.

// timedPolicy wraps Req-block by embedding its concrete type, so every
// optional interface the engine and the observers assert (idle eviction,
// victim-scan reporting, occupancy sampling) still resolves, and times the
// two calls the engine makes on the request path.
type timedPolicy struct {
	*core.ReqBlock
	bias time.Duration

	access, evictIdle     time.Duration
	accessN, evictIdleN   int64
	accessSpans           []int64
	evictedPages, batches int64
}

func (p *timedPolicy) Access(req cache.Request) cache.Result {
	t := time.Now()
	res := p.ReqBlock.Access(req)
	d := time.Since(t) - p.bias
	p.access += d
	p.accessN++
	p.accessSpans = append(p.accessSpans, int64(d))
	for _, ev := range res.Evictions {
		p.evictedPages += int64(len(ev.LPNs))
		p.batches++
	}
	return res
}

func (p *timedPolicy) EvictIdle(now int64) (cache.Eviction, bool) {
	t := time.Now()
	ev, ok := p.ReqBlock.EvictIdle(now)
	p.evictIdle += time.Since(t) - p.bias
	p.evictIdleN++
	if ok && len(ev.LPNs) > 0 {
		p.evictedPages += int64(len(ev.LPNs))
		p.batches++
	}
	return ev, ok
}

// nopPolicy serves every page from DRAM and never evicts: an engine run
// over it costs the engine's own dispatch and nothing else.
type nopPolicy struct{}

func (nopPolicy) Name() string                          { return "no-op" }
func (nopPolicy) Access(req cache.Request) cache.Result { return cache.Result{Hits: req.Pages} }
func (nopPolicy) Len() int                              { return 0 }
func (nopPolicy) CapacityPages() int                    { return capacityPages }
func (nopPolicy) NodeBytes() int                        { return 0 }
func (nopPolicy) NodeCount() int                        { return 0 }

// policyStats folds the spans of several timedPolicy instances.
type policyStats struct {
	access, evictIdle   time.Duration
	accessN, evictIdleN int64
	spans               []int64
	evicted, batches    int64
	scanCost            int64
}

func (s *policyStats) add(p *timedPolicy) {
	s.access += p.access
	s.evictIdle += p.evictIdle
	s.accessN += p.accessN
	s.evictIdleN += p.evictIdleN
	s.spans = append(s.spans, p.accessSpans...)
	s.evicted += p.evictedPages
	s.batches += p.batches
	s.scanCost += p.VictimScanCost()
}

// setCore reports the core.* metrics.
func (s *policyStats) setCore(rep *report, accessed, hits int64) {
	rep.set("core.access_ns", ratio(float64(s.access), float64(s.accessN)))
	rep.set("core.access_p99_ns", float64(quantile(s.spans, 0.99)))
	rep.set("core.evict_idle_ns", ratio(float64(s.evictIdle), float64(s.evictIdleN)))
	rep.set("core.victim_scan_cost", ratio(float64(s.scanCost), float64(s.batches)))
	rep.set("core.accessed_pages", float64(accessed))
	rep.set("core.hit_pages", float64(hits))
	rep.set("core.evicted_pages", float64(s.evicted))
	rep.set("core.pages_per_batch", ratio(float64(s.evicted), float64(s.batches)))
}

// setDevice reports the ssd.* counters of a run.
func setDevice(rep *report, c ssd.Counters, gc gcSched, bpStallNs int64) {
	rep.set("ssd.flash_writes", float64(c.FlashWrites))
	rep.set("ssd.gc_migrations", float64(c.GCMigrations))
	rep.set("ssd.erases", float64(c.Erases))
	rep.set("ssd.flash_reads", float64(c.FlashReads))
	rep.set("ssd.gc_pause_sim_ms", float64(c.GCPauseNs)/1e6)
	rep.set("ssd.bp_stall_sim_ms", float64(bpStallNs)/1e6)
	rep.set("ssd.gc_jobs", float64(gc.jobs))
	rep.set("ssd.gc_slices_per_job", ratio(float64(gc.jobs+gc.resumes), float64(gc.jobs)))
	rep.set("ssd.gc_cost_deferred", float64(gc.costDeferred))
}

// gcSched is the part of ftl.GCSchedStats the report uses, summed over
// devices.
type gcSched struct{ jobs, resumes, costDeferred int64 }

// roundTimes is one traced round's pass times, summed over the inputs.
type roundTimes struct {
	src, nop, bare, rs, traced, sh1, sh2 time.Duration
	policy                               time.Duration
	// rsCPU and sh1CPU are process CPU times: the shard pipeline runs its
	// splitter, relay and merger beside the engine, so on an idle second
	// core its cost shows in CPU time rather than in wall time.
	rsCPU, sh1CPU time.Duration
}

// traceReplay runs traced rounds until the measuring time is spent and
// reports the per-layer medians over rounds.
func traceReplay(cfg config, rep *report, spec replaySpec, ins []*input) error {
	bias := spanBias()
	rep.logf("span bias %v per timed call", bias)
	var reqs int64
	for _, in := range ins {
		reqs += int64(in.requests)
	}
	n := float64(reqs)
	var layers = map[string][]float64{}
	note := func(name string, v float64) { layers[name] = append(layers[name], v) }

	deadline := time.Now().Add(cfg.budget())
	var last roundResult
	for round := 0; ; round++ {
		rt, rr, err := traceRound(rep, spec, ins, bias)
		if err != nil {
			return err
		}
		last = rr
		note("trace.next_ns", float64(rt.src)/n)
		note("sim.engine_self_ns", float64(rt.nop-rt.src)/n)
		note("ssd.self_ns", float64(rt.bare-rt.nop-rt.policy)/n)
		note("replay.observer_ns", float64(rt.rs-rt.bare)/n)
		note("replay.total_ns", float64(rt.rs)/n)
		note("bench.trace_overhead", float64(rt.traced)/float64(rt.rs)-1)
		if spec.shards > 0 {
			note("shard.pipeline_ns", float64(rt.sh1CPU-rt.rsCPU)/n)
			note("shard.speedup", float64(rt.sh1)/float64(rt.sh2))
		}
		rep.logf("round %d: src %v nop %v bare %v policy %v runsource %v traced %v sharded1 %v sharded2 %v",
			round+1, rt.src, rt.nop, rt.bare, rt.policy, rt.rs, rt.traced, rt.sh1, rt.sh2)
		if cfg.short || !time.Now().Before(deadline) {
			break
		}
	}
	last.report(rep)
	for name, vs := range layers {
		rep.set(name, median(vs))
	}
	return nil
}

// roundResult carries the deterministic counts of a traced round.
type roundResult struct {
	pol       policyStats
	accessed  int64
	hits      int64
	dev       ssd.Counters
	gc        gcSched
	bpStallNs int64
	imbalance float64
}

func (r *roundResult) report(rep *report) {
	r.pol.setCore(rep, r.accessed, r.hits)
	setDevice(rep, r.dev, r.gc, r.bpStallNs)
	if r.imbalance > 0 {
		rep.set("shard.imbalance", r.imbalance)
	}
}

// timePass runs fn after a collection, so garbage from earlier passes is
// not charged to it, and returns its wall time and the CPU time the whole
// process spent meanwhile.
func timePass(fn func() error) (wall, cpu time.Duration, err error) {
	runtime.GC()
	c0 := processCPU()
	t0 := time.Now()
	err = fn()
	return time.Since(t0), processCPU() - c0, err
}

// processCPU returns the user plus system CPU time of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traceRound makes every pass of the subtraction ladder once per input.
func traceRound(rep *report, spec replaySpec, ins []*input, bias time.Duration) (roundTimes, roundResult, error) {
	var rt roundTimes
	var rr roundResult
	single := spec
	single.shards = 0
	for _, in := range ins {
		d, _, err := timePass(func() error {
			src := in.source()
			for {
				if _, ok := src.Next(); !ok {
					return src.Err()
				}
			}
		})
		if err != nil {
			return rt, rr, err
		}
		rt.src += d

		nopParams := ssd.ScaledParams(deviceDivisor)
		nopParams.Precondition = 0
		nopDev, err := ssd.New(nopParams)
		if err != nil {
			return rt, rr, err
		}
		d, _, err = timePass(func() error {
			_, err := sim.New(in.source(), nopPolicy{}, nopDev, sim.Config{}).Run()
			return err
		})
		if err != nil {
			return rt, rr, err
		}
		rt.nop += d

		p, _, err := single.prepare([]*input{in})
		if err != nil {
			return rt, rr, err
		}
		eng := bareEngine(in.source(), p[0].pols[0], p[0].devs[0], spec.opts)
		d, _, err = timePass(func() error { _, err := eng.Run(); return err })
		if err != nil {
			return rt, rr, err
		}
		rt.bare += d

		p, _, err = single.prepare([]*input{in})
		if err != nil {
			return rt, rr, err
		}
		var plain *replay.Metrics
		var cpu time.Duration
		d, cpu, err = timePass(func() error {
			var err error
			plain, err = single.replay(in.source(), p[0], nil, nil)
			return err
		})
		if err != nil {
			return rt, rr, err
		}
		rt.rs += d
		rt.rsCPU += cpu

		p, _, err = single.prepare([]*input{in})
		if err != nil {
			return rt, rr, err
		}
		tp := &timedPolicy{ReqBlock: p[0].pols[0], bias: bias}
		var traced *replay.Metrics
		d, _, err = timePass(func() error {
			var err error
			traced, err = replay.RunSource(in.source(), tp, p[0].devs[0], spec.opts)
			return err
		})
		if err != nil {
			return rt, rr, err
		}
		rt.traced += d
		rt.policy += tp.access + tp.evictIdle
		rep.check(reflect.DeepEqual(plain, traced), "%s: traced run's metrics differ from the untraced run's", in.name)
		rep.attempted += 3 * int64(in.requests)
		rep.failed += int64(2*in.requests - plain.Requests - traced.Requests)

		m := traced
		if spec.shards > 0 {
			var err error
			if m, err = traceSharded(rep, spec, in, bias, &rt, &rr); err != nil {
				return rt, rr, err
			}
		} else {
			rr.pol.add(tp)
		}
		rr.accessed += m.PageHits + m.PageMisses
		rr.hits += m.PageHits
		addCounters(&rr.dev, m.Device)
		rr.gc.jobs += m.GCSched.JobsStarted
		rr.gc.resumes += m.GCSched.Resumes
		rr.gc.costDeferred += m.GCSched.CostDeferred
		rr.bpStallNs += m.BackPressureStallNs
	}
	return rt, rr, nil
}

// traceSharded times RunSharded at one and at the workload's shard count,
// and takes the core counts from a traced pass at the workload's shard
// count (one timed policy per shard, each touched only by its shard).
func traceSharded(rep *report, spec replaySpec, in *input, bias time.Duration, rt *roundTimes, rr *roundResult) (*replay.Metrics, error) {
	p, _, err := spec.prepare([]*input{in})
	if err != nil {
		return nil, err
	}
	one := prepared{pols: []*core.ReqBlock{core.New(capacityPages)}, devs: p[0].devs[:1]}
	var sh1 *replay.Metrics
	d, cpu, err := timePass(func() error {
		var err error
		sh1, err = replay.RunSharded(in.source(), spec.shardSpec(one, 1, nil), spec.opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	rt.sh1 += d
	rt.sh1CPU += cpu

	p, _, err = spec.prepare([]*input{in})
	if err != nil {
		return nil, err
	}
	counts := make([]int64, spec.shards)
	var plain *replay.Metrics
	d, _, err = timePass(func() error {
		var err error
		plain, err = spec.replay(in.source(), p[0], nil, shardCounters(counts))
		return err
	})
	if err != nil {
		return nil, err
	}
	rt.sh2 += d
	var maxCount, sum int64
	for _, c := range counts {
		sum += c
		maxCount = max(maxCount, c)
	}
	rr.imbalance = ratio(float64(maxCount), float64(sum)/float64(len(counts)))

	p, _, err = spec.prepare([]*input{in})
	if err != nil {
		return nil, err
	}
	tps := make([]*timedPolicy, spec.shards)
	for k := range tps {
		tps[k] = &timedPolicy{ReqBlock: p[0].pols[k], bias: bias}
	}
	tspec := spec.shardSpec(p[0], spec.shards, nil)
	tspec.NewPolicy = func(k, _ int) cache.Policy { return tps[k] }
	traced, err := replay.RunSharded(in.source(), tspec, spec.opts)
	if err != nil {
		return nil, err
	}
	rep.check(reflect.DeepEqual(plain, traced), "%s: traced sharded run's metrics differ from the untraced run's", in.name)
	for _, tp := range tps {
		rr.pol.add(tp)
	}
	rep.attempted += 3 * int64(in.requests)
	rep.failed += int64(3*in.requests - sh1.Requests - plain.Requests - traced.Requests)
	return traced, nil
}

// bareEngine builds the engine RunSource would build, with the device set
// up the same way, but with no observers attached.
func bareEngine(src trace.Source, pol cache.Policy, dev *ssd.Device, opts replay.Options) *sim.Engine {
	if opts.BackPressureDepth > 0 {
		dev.SetBackPressure(opts.BackPressureDepth)
	}
	if opts.GCBudgetNs > 0 && !dev.GCSchedEnabled() {
		dev.EnableGCScheduler(ftl.GCSchedConfig{Enabled: true})
	}
	return sim.New(src, pol, dev, sim.Config{
		WarmupRequests: opts.WarmupRequests,
		IdleFlushNs:    opts.IdleFlushNs,
		IdleGC:         opts.IdleGC,
		GCBudgetNs:     opts.GCBudgetNs,
		QueueDepth:     opts.QueueDepth,
		DestageNs:      opts.DestageNs,
	})
}

// addCounters sums device counters.
func addCounters(dst *ssd.Counters, c ssd.Counters) {
	dst.FlashWrites += c.FlashWrites
	dst.FlashReads += c.FlashReads
	dst.GCMigrations += c.GCMigrations
	dst.GCPauseNs += c.GCPauseNs
	dst.Erases += c.Erases
}
