package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fixed simulation settings shared by every workload: the paper's 16 MB
// write buffer under Req-block on a 1/16-scale device (8 GiB of flash).
const (
	pageSize      = 4096
	capacityPages = 16 * 256
	deviceDivisor = 16
	// setupRounds is how many times a run builds its whole set-up; setup_s
	// is their median.
	setupRounds = 3
	// oracleBatches is how many evictions the oracle-checked prefix of each
	// input runs to (the whole input when it evicts less).
	oracleBatches = 200
)

// input is one replay input: a generated trace serialized as MSR
// Cambridge text, streamed through trace.ScanMSRWith on every pass.
type input struct {
	name string
	msr  []byte
	// requests and pages are summed by the benchmark from the generated
	// trace (requests that span at least one page, and their page spans).
	requests int
	pages    int64
}

// source returns a fresh scanner over the input.
func (in *input) source() *trace.Scanner {
	return trace.ScanMSRWith(bytes.NewReader(in.msr), in.name, trace.MSROptions{})
}

// prefix returns the input cut to its first n requests.
func (in *input) prefix(n int) *input {
	pos := 0
	for i := 0; i < n && pos < len(in.msr); i++ {
		j := bytes.IndexByte(in.msr[pos:], '\n')
		if j < 0 {
			pos = len(in.msr)
			break
		}
		pos += j + 1
	}
	return &input{name: in.name, msr: in.msr[:pos]}
}

func newInput(tr *trace.Trace) (*input, error) {
	var buf bytes.Buffer
	if err := trace.WriteMSR(&buf, tr); err != nil {
		return nil, err
	}
	in := &input{name: tr.Name, msr: buf.Bytes()}
	for _, r := range tr.Requests {
		if _, n := r.PageSpan(pageSize); n > 0 {
			in.requests++
			in.pages += int64(n)
		}
	}
	return in, nil
}

// replaySpec is one replay workload: its inputs, device, options and
// entry point.
type replaySpec struct {
	scale float64
	// inputs lists one profile set per input; a set of several profiles is
	// interleaved into one multi-tenant trace by workload.Mix.
	inputs [][]workload.Profile
	// instances generates each input this many times with distinct seed
	// offsets (0 = once).
	instances int
	aged      bool
	// shards selects the entry point: 0 replays each input with
	// replay.RunSource, >= 1 with replay.RunSharded over that many EQUAL
	// shards routed by tenant boundaries.
	shards int
	opts   replay.Options
	// oracle enables the check against the paper-literal oracle model.
	oracle bool
}

func replaySpecFor(cfg config) replaySpec {
	scale := 0.2 // the experiment harness's default, where profiles are calibrated
	if cfg.short {
		scale = 0.01
	}
	switch cfg.workload {
	case "replay-paper":
		return replaySpec{
			scale: scale,
			inputs: [][]workload.Profile{
				{workload.SRC12()}, {workload.TS0()}, {workload.PROJ0()},
			},
			// Two instances of each profile keep both workers of the pass
			// busy to its end (proj_0 alone outlasts the other two).
			instances: 2,
			oracle:    true,
		}
	case "replay-aged":
		if cfg.short {
			scale = 0.02 // GC must still run
		}
		return replaySpec{
			scale: scale,
			inputs: [][]workload.Profile{
				{workload.SRC12(), workload.HM1()}, {workload.SRC12(), workload.LUN1()},
			},
			// Two instances pool enough GC events that the simulated
			// tail does not hinge on one seed's trace.
			instances: 2,
			aged:      true,
			// As `ssdreplay -aged -backpressure 4 -idle-flush-ms 2
			// -gc-budget-ms 30` configures it.
			opts: replay.Options{
				BackPressureDepth: 4,
				IdleFlushNs:       2_000_000,
				GCBudgetNs:        30_000_000,
			},
		}
	default: // replay-sharded
		ps := []workload.Profile{workload.SRC12(), workload.TS0(), workload.USR0(), workload.HM1()}
		var bounds []int64
		var top int64
		for _, p := range ps {
			top += p.FootprintPages
			bounds = append(bounds, top)
		}
		return replaySpec{
			scale:  scale,
			inputs: [][]workload.Profile{ps},
			shards: 2,
			opts:   replay.Options{TenantBoundaries: bounds},
		}
	}
}

// describe returns the resolved options for the manifest.
func (s replaySpec) describe() map[string]any {
	var ins []string
	for _, ps := range s.inputs {
		var names []string
		for _, p := range ps {
			names = append(names, p.Name)
		}
		ins = append(ins, strings.Join(names, "+"))
	}
	entry := "replay.RunSource"
	if s.shards > 0 {
		entry = fmt.Sprintf("replay.RunSharded(shards=%d, EQUAL)", s.shards)
	}
	p := s.params()
	return map[string]any{
		"entry":            entry,
		"policy":           "Req-block (core.New)",
		"capacity_pages":   capacityPages,
		"inputs":           ins,
		"scale":            s.scale,
		"device_divisor":   deviceDivisor,
		"precondition":     p.Precondition,
		"faults":           fmt.Sprintf("%+v", p.Faults),
		"gc_scheduler":     p.GCSched.Enabled,
		"backpressure":     s.opts.BackPressureDepth,
		"idle_flush_ns":    s.opts.IdleFlushNs,
		"gc_budget_ns":     s.opts.GCBudgetNs,
		"tenant_bounds":    s.opts.TenantBoundaries,
		"oracle_batches":   oracleBatches,
		"oracle":           s.oracle,
		"instances":        max(s.instances, 1),
		"setup_rounds":     setupRounds,
		"input_format":     "MSR Cambridge text via trace.ScanMSRWith",
		"workload_package": "internal/workload, SeedOffset = seed",
	}
}

// params returns the device parameters: a fresh 1/16 device
// (preconditioned to 50%, the default), or the aged one.
func (s replaySpec) params() ssd.Params {
	p := ssd.ScaledParams(deviceDivisor)
	if s.aged {
		p.Faults = experiments.AgedFaults(fault.Config{Seed: 1})
		p.Precondition = 0.9
		p.GCSched.Enabled = true
	}
	return p
}

// generate builds the inputs from the seed.
func (s replaySpec) generate(seed int64) ([]*input, error) {
	n := max(s.instances, 1)
	var ins []*input
	for k := 0; k < n; k++ {
		opts := workload.Options{Scale: s.scale, PageSize: pageSize, SeedOffset: seed*int64(n) + int64(k)}
		for _, ps := range s.inputs {
			var names []string
			for _, p := range ps {
				names = append(names, p.Name)
			}
			name := strings.Join(names, "+")
			if n > 1 {
				name = fmt.Sprintf("%s#%d", name, k)
			}
			var tr *trace.Trace
			var err error
			if len(ps) == 1 {
				tr, err = workload.Generate(ps[0], opts)
			} else {
				tr, err = workload.Mix(name, opts, ps...)
			}
			if err != nil {
				return nil, err
			}
			tr.Name = name
			in, err := newInput(tr)
			if err != nil {
				return nil, err
			}
			ins = append(ins, in)
		}
	}
	return ins, nil
}

// prepared is one input's fresh policy and device state for one pass.
type prepared struct {
	pols []*core.ReqBlock
	devs []*ssd.Device
}

// prepare builds a fresh policy and device set per input, for one pass.
func (s replaySpec) prepare(ins []*input) ([]prepared, time.Duration, error) {
	var devTime time.Duration
	out := make([]prepared, len(ins))
	n := max(s.shards, 1)
	for i := range ins {
		for k := 0; k < n; k++ {
			capPages := capacityPages
			if s.shards > 0 {
				capPages, _ = sim.ShardQuota(sim.SharingEqual, capacityPages, s.shards, k)
			}
			t0 := time.Now()
			dev, err := ssd.New(s.params())
			devTime += time.Since(t0)
			if err != nil {
				return nil, 0, err
			}
			out[i].devs = append(out[i].devs, dev)
			out[i].pols = append(out[i].pols, core.New(capPages))
		}
	}
	return out, devTime, nil
}

// replay runs one input through the workload's entry point. extra
// observers attach to the (merged) event stream; shardObs, when set,
// attaches per-shard observers on the sharded path.
func (s replaySpec) replay(src trace.Source, p prepared, extra []sim.Observer,
	shardObs func(int, *sim.Engine) []sim.Observer) (*replay.Metrics, error) {
	opts := s.opts
	opts.Observers = extra
	if s.shards == 0 {
		return replay.RunSource(src, p.pols[0], p.devs[0], opts)
	}
	return replay.RunSharded(src, s.shardSpec(p, s.shards, shardObs), opts)
}

// shardSpec builds the ShardSpec over prepared state (shards must not
// exceed the prepared device count).
func (s replaySpec) shardSpec(p prepared, shards int, shardObs func(int, *sim.Engine) []sim.Observer) replay.ShardSpec {
	return replay.ShardSpec{
		Shards:             shards,
		Sharing:            sim.SharingEqual,
		TotalCapacityPages: capacityPages,
		NewPolicy:          func(k, _ int) cache.Policy { return p.pols[k] },
		NewDevice:          func(k int) (*ssd.Device, error) { return p.devs[k], nil },
		ShardObservers:     shardObs,
	}
}
