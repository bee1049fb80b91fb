package main

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// checkObserver recomputes, from the event stream, the quantities the
// output checks compare against Metrics: flushed pages per dirty batch and
// the exact per-request response times.
type checkObserver struct {
	sim.NopObserver
	dirtyPages  int64
	bypassPages int64
	respSum     int64
	resp        []int64
}

func (o *checkObserver) OnEviction(_ *sim.Engine, ev *sim.EvictionEvent) {
	if ev.Kind != sim.EvictClean {
		o.dirtyPages += int64(len(ev.LPNs))
	}
}

func (o *checkObserver) OnResult(_ *sim.Engine, ev *sim.ResultEvent) {
	o.bypassPages += int64(len(ev.Res.Bypass))
	if ev.Req.Warm {
		d := ev.Completion - ev.Req.Issue
		o.respSum += d
		o.resp = append(o.resp, d)
	}
}

// resultCounter counts one shard's results; it runs on that shard's
// goroutine and is read after the run returns.
type resultCounter struct {
	sim.NopObserver
	n *int64
}

func (o resultCounter) OnResult(*sim.Engine, *sim.ResultEvent) { *o.n++ }

// shardCounters returns a ShardObservers hook counting results per shard.
func shardCounters(counts []int64) func(int, *sim.Engine) []sim.Observer {
	return func(k int, _ *sim.Engine) []sim.Observer {
		return []sim.Observer{resultCounter{n: &counts[k]}}
	}
}

// runReplay measures one replay workload. Set-up (input generation,
// device build, policy construction) runs setupRounds times; then one
// untimed warm-up pass carries the output checks and yields the simulated
// metrics; then timed passes, each over fresh devices, repeat until the
// run's measuring time is spent.
func runReplay(cfg config, rep *report) error {
	spec := replaySpecFor(cfg)
	logOptions(rep, spec.describe())

	var ins []*input
	var prep []prepared
	var setups, gens, devs []float64
	for i := 0; i < setupRounds; i++ {
		prep = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if ins, err = spec.generate(cfg.seed); err != nil {
			return err
		}
		gen := time.Since(t0)
		var devTime time.Duration
		if prep, devTime, err = spec.prepare(ins); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, gen.Seconds())
		devs = append(devs, devTime.Seconds())
	}
	var pages int64
	for _, in := range ins {
		pages += in.pages
		rep.logf("input %s: %d requests, %d pages, %d bytes of MSR text", in.name, in.requests, in.pages, len(in.msr))
	}
	if cfg.trace {
		rep.set("workload.generate_s", median(gens))
		rep.set("ssd.new_s", median(devs))
		// One instance of each input: per-request layer costs do not need
		// the second, and the ladder replays each input many times.
		return traceReplay(cfg, rep, spec, ins[:len(spec.inputs)])
	}
	rep.set("setup_s", median(setups))

	base, err := checkedPass(rep, spec, ins, prep)
	if err != nil {
		return err
	}

	var rates, cpuPerPage []float64
	deadline := time.Now().Add(cfg.budget())
	minPasses := 3
	if cfg.short {
		minPasses = 1
	}
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		pad := layoutPad(pass)
		prep, _, err := spec.prepare(ins)
		if err != nil {
			return err
		}
		runtime.GC()
		c0 := processCPU()
		ms, elapsed, err := replayAll(spec, ins, prep)
		cpu := processCPU() - c0
		if err != nil {
			return err
		}
		for i, in := range ins {
			rep.attempted += int64(in.requests)
			rep.failed += int64(in.requests - ms[i].Requests)
			rep.check(reflect.DeepEqual(ms[i], base[i]), "%s: pass %d metrics differ from the warm-up pass", in.name, pass+1)
		}
		rates = append(rates, float64(pages)/elapsed.Seconds())
		cpuPerPage = append(cpuPerPage, float64(cpu)/float64(pages))
		runtime.KeepAlive(pad)
	}
	rep.set("host_pages_per_s", iqMean(rates))
	rep.logf("timed passes %d, host pages/s per pass %v", len(rates), rates)
	rep.logf("process CPU ns per page per pass %v", cpuPerPage)
	return nil
}

// replayAll replays every input through the entry point on a pool of
// GOMAXPROCS workers, largest input first, the way the experiment grid
// (internal/experiments RunGrid) runs its cells, and returns the pass's
// wall time.
func replayAll(spec replaySpec, ins []*input, prep []prepared) ([]*replay.Metrics, time.Duration, error) {
	order := make([]int, len(ins))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ins[order[a]].requests > ins[order[b]].requests })
	next := make(chan int, len(ins)) // holds every job up front
	for _, i := range order {
		next <- i
	}
	close(next)
	ms := make([]*replay.Metrics, len(ins))
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(ins)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ms[i], errs[i] = spec.replay(ins[i].source(), prep[i], nil, nil)
			}
		}()
	}
	wg.Wait()
	return ms, time.Since(t0), errors.Join(errs...)
}

// layoutPad returns a buffer to hold across pass's set-up and replay. Its
// size, 0 to 16 MiB in 64 KiB steps scattered over the pass index, shifts
// where the pass's devices land in the heap: this host's replay speed
// depends on that placement by tens of percent, and a layout that
// persists across passes would otherwise move a whole run's figure. With
// the shift, every run samples many placements (the idea behind layout
// randomization in "Stabilizer", Curtsinger and Berger, ASPLOS 2013).
func layoutPad(pass int) []byte {
	return make([]byte, (pass*7919%257)*64<<10)
}

// checkedPass is the untimed warm-up pass: it replays every input with the
// checking observers attached, runs the output checks, sets the simulated
// end-to-end metrics and returns each input's Metrics, which every timed
// pass must reproduce exactly.
func checkedPass(rep *report, spec replaySpec, ins []*input, prep []prepared) ([]*replay.Metrics, error) {
	var base []*replay.Metrics
	var hits, accessed, flash, respSum, respN int64
	var resp []int64
	for i, in := range ins {
		ob := &checkObserver{}
		counts := make([]int64, max(spec.shards, 1))
		var shardObs func(int, *sim.Engine) []sim.Observer
		if spec.shards > 0 {
			shardObs = shardCounters(counts)
		}
		m, err := spec.replay(in.source(), prep[i], []sim.Observer{ob}, shardObs)
		if err != nil {
			return nil, err
		}
		base = append(base, m)
		rep.attempted += int64(in.requests)
		rep.failed += int64(in.requests - m.Requests)

		checkConservation(rep, in, m, ob)
		if spec.aged {
			dev := prep[i].devs[0]
			rep.check(dev.CheckInvariants() == nil, "%s: FTL invariants violated at the end: %v", in.name, dev.CheckInvariants())
			rep.check(!m.Degraded, "%s: device degraded at request %d", in.name, m.DegradedAtRequest)
			rep.check(m.Device.Erases > 0, "%s: aged device erased no block (GC never ran)", in.name)
			rep.check(m.GCSched.JobsStarted > 0, "%s: GC scheduler started no job", in.name)
		}
		if spec.shards > 0 {
			var sum int64
			for _, c := range counts {
				sum += c
			}
			rep.check(sum == int64(in.requests), "%s: per-shard requests %v sum to %d, trace has %d", in.name, counts, sum, in.requests)
			rep.logf("%s: per-shard requests %v", in.name, counts)
		}

		hits += m.PageHits
		accessed += m.PageHits + m.PageMisses
		flash += m.Device.FlashWrites + m.Device.GCMigrations
		respSum += ob.respSum
		respN += int64(len(ob.resp))
		resp = append(resp, ob.resp...)
		rep.logf("%s: hit ratio %.6f, mean response %.6f ms, flash writes %d, GC migrations %d, erases %d, GC jobs %d",
			in.name, m.HitRatio(), m.Response.Mean()/1e6, m.Device.FlashWrites, m.Device.GCMigrations, m.Device.Erases, m.GCSched.JobsStarted)
	}
	rep.set("sim_hit_ratio", ratio(float64(hits), float64(accessed)))
	rep.set("sim_resp_mean_ms", ratio(float64(respSum), float64(respN))/1e6)
	rep.set("sim_resp_p999_ms", float64(quantile(resp, 0.999))/1e6)
	rep.set("sim_flash_pages", float64(flash))

	if spec.oracle {
		var batches int64
		for _, in := range ins {
			b, err := oracleCheck(rep, spec, in)
			if err != nil {
				return nil, err
			}
			batches += b
		}
		rep.check(batches >= oracleBatches, "oracle prefixes evicted only %d times", batches)
	}
	if spec.shards > 0 {
		if err := shardEquivalenceCheck(rep, spec, ins); err != nil {
			return nil, err
		}
	}
	return base, nil
}

// checkConservation compares Metrics against the trace and the event
// stream: every page of the trace is accessed once, every dirty evicted
// page is programmed once, and the mean response is the exact mean.
func checkConservation(rep *report, in *input, m *replay.Metrics, ob *checkObserver) {
	rep.check(m.Requests == in.requests, "%s: %d requests processed, trace has %d", in.name, m.Requests, in.requests)
	rep.check(m.PageHits+m.PageMisses == in.pages, "%s: %d pages accessed, trace spans %d", in.name, m.PageHits+m.PageMisses, in.pages)
	rep.check(m.Device.FlashWrites == ob.dirtyPages+ob.bypassPages,
		"%s: %d host flash programs, event stream flushed %d dirty + %d bypass pages", in.name, m.Device.FlashWrites, ob.dirtyPages, ob.bypassPages)
	rep.check(m.Response.Count() == int64(len(ob.resp)) && m.Response.Sum() == float64(ob.respSum),
		"%s: response summary %d/%.0f, events give %d/%d", in.name, m.Response.Count(), m.Response.Sum(), len(ob.resp), ob.respSum)
	exact := ratio(float64(ob.respSum), float64(len(ob.resp)))
	rep.check(math.Abs(m.Response.Mean()-exact) <= 1e-9*exact,
		"%s: mean response %.6f ns, exact mean %.6f ns", in.name, m.Response.Mean(), exact)
}

// oracleCheck feeds an input's scanned requests to the paper-literal
// Req-block model of internal/oracle until it has evicted oracleBatches
// times (or the input ends), replays that same prefix through the program,
// and requires page hits and evicted pages to agree. It returns the
// model's eviction count.
func oracleCheck(rep *report, spec replaySpec, in *input) (int64, error) {
	tr, err := trace.Collect(in.source())
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultConfig()
	o := oracle.NewReqBlock(capacityPages, oracle.ReqBlockConfig{Delta: cfg.Delta, Merge: cfg.Merge, Recency: cfg.Recency})
	var hits, evicted, batches int64
	n := 0
	for _, r := range tr.Requests {
		if batches >= oracleBatches {
			break
		}
		n++
		first, pages := r.PageSpan(pageSize)
		if pages == 0 {
			continue
		}
		res := o.Access(cache.Request{Time: r.Time, Write: r.Write, LPN: first, Pages: pages})
		hits += int64(res.Hits)
		for _, ev := range res.Evictions {
			evicted += int64(len(ev.LPNs))
			batches++
		}
	}
	dev, err := ssd.New(spec.params())
	if err != nil {
		return 0, err
	}
	m, err := replay.RunSource(in.prefix(n).source(), core.New(capacityPages), dev, replay.Options{})
	if err != nil {
		return 0, err
	}
	rep.logf("%s: oracle prefix of %d requests: %d hits, %d pages in %d eviction batches", in.name, n, hits, evicted, batches)
	rep.check(hits == m.PageHits, "%s: oracle prefix hits %d, program %d", in.name, hits, m.PageHits)
	rep.check(evicted == m.FlushedPages, "%s: oracle prefix evicted %d pages, program %d", in.name, evicted, m.FlushedPages)
	return batches, nil
}

// shardEquivalenceCheck checks the documented contract that RunSharded
// with one shard reproduces RunSource on the same input exactly.
func shardEquivalenceCheck(rep *report, spec replaySpec, ins []*input) error {
	one := spec
	one.shards = 0
	for _, in := range ins {
		p1, _, err := one.prepare([]*input{in})
		if err != nil {
			return err
		}
		single, err := one.replay(in.source(), p1[0], nil, nil)
		if err != nil {
			return err
		}
		p2, _, err := one.prepare([]*input{in})
		if err != nil {
			return err
		}
		sharded, err := replay.RunSharded(in.source(), spec.shardSpec(p2[0], 1, nil), spec.opts)
		if err != nil {
			return err
		}
		rep.check(reflect.DeepEqual(single, sharded), "%s: RunSharded(shards=1) differs from RunSource", in.name)
	}
	return nil
}
