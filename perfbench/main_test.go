package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestShortRuns runs every workload in both modes on tiny inputs: every
// output check must pass, no operation may fail, and the result line must
// carry the mode's whole metric list.
func TestShortRuns(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w + "/e2e"
			list := endToEnd
			if traced {
				name = w + "/traced"
				list = perLayer
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				res, err := run(config{workload: w, seed: 7, seconds: 1, trace: traced, short: true}, &log)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				if len(res.Metrics) != len(list) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(list))
				}
				for _, m := range list {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestChecksCatchWrongMetrics feeds the conservation checks a Metrics that
// disagrees with the event stream and the trace, and expects a failure for
// each disagreement.
func TestChecksCatchWrongMetrics(t *testing.T) {
	spec := replaySpecFor(config{workload: "replay-paper", short: true})
	ins, err := spec.generate(1)
	if err != nil {
		t.Fatal(err)
	}
	prep, _, err := spec.prepare(ins[:1])
	if err != nil {
		t.Fatal(err)
	}
	ob := &checkObserver{}
	m, err := spec.replay(ins[0].source(), prep[0], []sim.Observer{ob}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(&bytes.Buffer{})
	checkConservation(rep, ins[0], m, ob)
	if len(rep.failures) != 0 {
		t.Fatalf("clean run failed checks: %v", rep.failures)
	}
	m.PageHits++
	m.Device.FlashWrites--
	m.Response.Observe(1)
	checkConservation(rep, ins[0], m, ob)
	for _, want := range []string{"pages accessed", "host flash programs", "response summary", "mean response"} {
		found := false
		for _, f := range rep.failures {
			found = found || strings.Contains(f, want)
		}
		if !found {
			t.Errorf("no failure mentions %q: %v", want, rep.failures)
		}
	}
}
