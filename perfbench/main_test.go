package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/ode"
	"repro/internal/problems"
)

// sequence renders the first ops a generator hands out: step-op initial
// states, campaign seeds and, on a workload with sdcd traffic, sdcd blocks
// with their specs.
func sequence(w *workload, seed uint64) string {
	g := newGen(w, seed)
	p, err := problems.ByName(w.problem, w.n)
	if err != nil {
		panic(err)
	}
	var s string
	if w.serves() {
		s = fmt.Sprint(g.preseed(4))
	}
	for i := 0; i < 3; i++ {
		s += fmt.Sprint(g.initialStates(p.X0)[0][:2], g.campaignSeed())
		if w.serves() {
			for _, rq := range g.nextBlock() {
				s += fmt.Sprint(rq, g.pool[rq.idx].Seeds)
			}
		}
	}
	return s
}

func TestLoadIsDerivedFromSeedOnly(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(w, 7), sequence(w, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two different sequences", w.name)
		}
		if a == sequence(w, 8) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
	}
}

func sdcdWorkload(t *testing.T) *workload {
	w, err := workloadByName("sdcd-mix")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestColdSpecsNeverRepeat(t *testing.T) {
	g := newGen(sdcdWorkload(t), 1)
	g.preseed(preseeded)
	seen := map[string]bool{}
	for _, s := range g.pool {
		seen[s.Method+s.Detector+fmt.Sprint(s.Seeds)] = true
	}
	for i := 0; i < 50; i++ {
		for _, rq := range g.nextBlock() {
			s := g.pool[rq.idx]
			key := s.Method + s.Detector + fmt.Sprint(s.Seeds)
			if rq.cold == seen[key] {
				t.Fatalf("request %+v: cold=%v but seen before=%v", rq, rq.cold, seen[key])
			}
			seen[key] = true
		}
	}
}

// Half the requests are duplicates, and every pass of duplicates repeats
// each pre-seeded campaign exactly once.
func TestDuplicatesCoverPreseededEvenly(t *testing.T) {
	g := newGen(sdcdWorkload(t), 5)
	g.preseed(preseeded)
	var cold int
	var dups []int
	for len(dups) < 3*preseeded {
		for _, rq := range g.nextBlock() {
			if rq.cold {
				cold++
			} else {
				dups = append(dups, rq.idx)
			}
		}
	}
	if cold != len(dups) {
		t.Errorf("%d cold requests, %d duplicates; want equal", cold, len(dups))
	}
	for pass := 0; pass < 3; pass++ {
		seen := map[int]bool{}
		for _, idx := range dups[pass*preseeded : (pass+1)*preseeded] {
			if idx >= preseeded || seen[idx] {
				t.Fatalf("pass %d: duplicate of campaign %d out of place", pass, idx)
			}
			seen[idx] = true
		}
	}
}

// The traced run must exercise the same engine paths as the untraced one:
// a wrapper that dropped control.BatchValidator would move the lockstep
// engine onto its scalar fallback.
func TestWrapValidatorKeepsInterfaceSet(t *testing.T) {
	osc := problems.Oscillator()
	tr := newTracer()
	for _, name := range control.Names() {
		det, err := control.New(name, control.Spec{Tab: ode.HeunEuler(), Sys: osc.Sys})
		if err != nil {
			t.Fatal(err)
		}
		wrapped := wrapValidator(det.Validator, tr)
		if det.Validator == nil {
			if wrapped != nil {
				t.Errorf("%s: nil validator wrapped as %T", name, wrapped)
			}
			continue
		}
		_, inner := det.Validator.(control.BatchValidator)
		_, outer := wrapped.(control.BatchValidator)
		if inner != outer {
			t.Errorf("%s: inner BatchValidator=%v, wrapped=%v", name, inner, outer)
		}
	}
}

func TestSelfTimesExcludeChildren(t *testing.T) {
	tr := newTracer()
	tr.begin(lOp)
	tr.begin(lStep)
	time.Sleep(2 * time.Millisecond)
	tr.begin(lEval)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	tr.end()
	if tr.count[lStep] != 1 || tr.count[lEval] != 1 || tr.kids[lStep] != 1 || tr.kids[lOp] != 1 {
		t.Fatalf("counts %v kids %v", tr.count, tr.kids)
	}
	if s := time.Duration(tr.self[lStep]); s < 2*time.Millisecond || s > 4*time.Millisecond {
		t.Errorf("step self time %v, want about 2ms", s)
	}
	if s := time.Duration(tr.self[lOp]); s > time.Millisecond {
		t.Errorf("op self time %v, want close to 0", s)
	}
}

// The metric tables here and BENCHMARK.json at the repository root must
// describe the same metrics and workloads.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, tc := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the table", len(tc.got), len(tc.want))
			continue
		}
		for i, m := range tc.got {
			if d := tc.want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json metric %+v, table %+v", m, d)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
			}
		}
	}
}

// A short traced and untraced run of the cheapest workload passes every
// correctness check and reports every metric of its table.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	w := sdcdWorkload(t)
	for _, traced := range []bool{false, true} {
		res, err := run(w, 3, 200*time.Millisecond, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("traced=%v: %d of %d checks failed", traced, res.Failed, res.Attempted)
		}
	}
}
