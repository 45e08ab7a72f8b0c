// Command perfbench is the repository's end-to-end benchmark. It drives the
// public functions of each layer — ode.Integrator.Step, batch.Integrator.Round,
// harness.RunContext and the sdcd HTTP API — on one seed-derived workload,
// checks every output against its serial reference, and prints every metric
// by name and unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload osc --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs every op a second
// time under span wrappers and reports the per-layer split instead. It exits
// non-zero when any correctness check fails. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"

	"repro/internal/la"
	"repro/internal/server"
)

func main() {
	name := flag.String("workload", "", "workload: osc, burgers-1k or sdcd-mix")
	seed := flag.Uint64("seed", 1, "seed every input of the run derives from")
	seconds := flag.Float64("seconds", 20, "timed budget of the run in seconds")
	traced := flag.Int("trace", 0, "1 = report the traced per-layer split instead of the end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for the sdcd data directory of the run")
	flag.Parse()

	w, err := workloadByName(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err == nil && *seconds <= 0 {
		err = errors.New("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%s: %d checks, %d failed\n", w.name, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// checks counts correctness checks: every op is checked against its serial
// reference, and a failed check counts against the ops attempted.
type checks struct{ attempted, failed int }

func (c *checks) add(n, bad int) { c.attempted += n; c.failed += bad }

// tracers holds one span recorder per engine of the traced run and the
// timer calibration sampled between its ops.
type tracers struct {
	serial, batched, camp, campB8, http *tracer
	cal                                 calibration
}

// bench is what set-up builds and the timed phases use.
type bench struct {
	steps []*stepCell
	camps []*campCell
	ep    *endpoint // nil on workloads without sdcd traffic
}

// minSetups is the fewest set-ups a run takes. Set-up runs once before the
// timed ops and then again as an op of its own, interleaved with the others
// over the whole run, so that setup_s, the fastest set-up, sees the same mix
// of host speeds as the step and campaign figures.
const minSetups = 5

// minClass is the fewest samples per class (cold and duplicate sdcd
// requests, batched campaigns) a traced run takes, so each p90 has at least
// ten samples of its class beyond it.
const minClass = 110

// checkBlocks is how many sdcd blocks an untraced run sends: a fixed amount
// of traffic for the correctness checks and the server's share of the heap,
// so the rest of the budget goes to the step and campaign ops.
const checkBlocks = 8

// minCycles is the fewest step and campaign ops per cell a run takes.
const minCycles = 3

// heapSamples is how many times over the budget the retained heap is read.
const heapSamples = 64

// preseeded is how many campaigns the data directory holds before set-up.
const preseeded = 32

func run(w *workload, seed uint64, budget time.Duration, traced bool, base string) (result, error) {
	var res result
	var chk checks
	g := newGen(w, seed)
	// dir is the data directory of the served sdcd traffic; the set-ups
	// after the first open a copy of its pre-seeded state instead, so they
	// replay the same journal while the first server serves.
	var dir, setupDir string
	var pre []server.Spec
	docs := map[int][]byte{}
	if w.serves() {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return res, err
		}
		var err error
		if dir, err = os.MkdirTemp(base, "sdcd-"); err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		pre = g.preseed(preseeded)
		preDocs, err := preseed(dir, pre)
		if err != nil {
			return res, err
		}
		for i, d := range preDocs {
			docs[i] = d
		}
		if setupDir, err = os.MkdirTemp(base, "sdcd-setup-"); err != nil {
			return res, err
		}
		defer os.RemoveAll(setupDir)
		if err := copyTree(dir, setupDir); err != nil {
			return res, err
		}
	}

	var setupS, replayMs, warmMs []float64
	b, s, replay, warm, err := setUp(w, dir, &chk)
	if err != nil {
		return res, err
	}
	setupS, replayMs, warmMs = append(setupS, s), append(replayMs, replay), append(warmMs, warm)
	serving := true
	defer func() {
		if serving {
			b.close() // error path: the run's error is what gets reported
		}
	}()

	var trs *tracers
	if traced {
		trs = &tracers{serial: newTracer(), batched: newTracer(), camp: newTracer(), campB8: newTracer(), http: newTracer()}
	}
	for _, sc := range b.steps {
		sc.part = 0
		sc.states = g.initialStates(sc.p.X0)
	}

	var ss stepStats
	var cs campStats
	var sv srvStats
	var colds []int
	var size0 int64
	if b.ep != nil {
		sv.before = b.ep.srv.Stats()
		var err error
		if size0, err = dirSize(dir); err != nil {
			return res, err
		}
	}
	// heap_peak_mb is the largest heap retained at an op boundary: the live
	// heap after a forced collection, taken at the start of the timed phase,
	// then after the first op to end each heapSamples-th of the budget, and
	// at its end. The collections fall between ops, outside every timed
	// piece.
	heapEvery := budget / heapSamples
	peak := retainedHeap()
	lastHeap := time.Now()
	// The kinds of op interleave over the whole budget: each turn runs one
	// op of the kind furthest behind its share of the time spent, so every
	// metric samples the whole run, not one slice of it. A kind is done once
	// its minimum sample is taken; past the deadline only unfinished kinds
	// run, and a capped kind stops at its minimum.
	type opKind struct {
		share  float64
		spent  time.Duration
		run    func() error
		done   func() bool
		capped bool
	}
	setupOp := &opKind{share: w.shares[3], run: func() error {
		nb, s, replay, warm, err := setUp(w, setupDir, &chk)
		if err != nil {
			return err
		}
		setupS, replayMs, warmMs = append(setupS, s), append(replayMs, replay), append(warmMs, warm)
		return nb.close()
	}, done: func() bool { return len(setupS) >= minSetups }}
	// A traced run takes enough campaigns for harness.campaign_ms_p90 to have
	// at least ten beyond it.
	minCamps := minCycles * len(b.camps)
	if traced {
		minCamps = max(minCamps, minClass)
	}
	ops := []*opKind{
		{share: w.shares[0], run: func() error { return stepOp(b.steps, g, &ss, &chk, trs) },
			done: func() bool { return ss.ops >= minCycles*len(b.steps) }},
		{share: w.shares[1], run: func() error { return campaignOp(b.camps, g, &cs, &chk, trs) },
			done: func() bool { return cs.ops >= minCamps }},
		setupOp,
	}
	if b.ep != nil {
		sd := &opKind{share: w.shares[2], run: func() error { return sdcdBlock(b.ep, g, docs, &sv, &colds, &chk, trs) }}
		if traced {
			sd.done = func() bool { return len(sv.coldMs) >= minClass && len(sv.hitMs) >= minClass }
		} else {
			sd.done = func() bool { return sv.blocks >= checkBlocks }
			sd.capped = true
		}
		ops = append(ops, sd)
	}
	deadline := time.Now().Add(budget)
	for {
		var next *opKind
		for _, k := range ops {
			if k.done() && (k.capped || time.Now().After(deadline)) {
				continue
			}
			if next == nil || float64(k.spent)/k.share < float64(next.spent)/next.share {
				next = k
			}
		}
		if next == nil {
			break
		}
		start := time.Now()
		if err := next.run(); err != nil {
			return res, err
		}
		next.spent += time.Since(start)
		if time.Since(lastHeap) >= heapEvery {
			peak = max(peak, retainedHeap())
			lastHeap = time.Now()
		}
		if trs != nil {
			trs.cal.sample()
		}
	}
	peak = max(peak, retainedHeap())
	if b.ep != nil {
		sv.after = b.ep.srv.Stats()
		size1, err := dirSize(dir)
		if err != nil {
			return res, err
		}
		sv.bytesWritten = size1 - size0
	}
	serving = false
	if err := b.close(); err != nil {
		return res, err
	}

	// Untimed: every campaign the server answered must match the serial
	// harness byte for byte (duplicates were already held to their originals).
	for _, idx := range append(seq(len(pre)), colds...) {
		want, err := oracleDoc(g.pool[idx])
		if err != nil {
			return res, err
		}
		chk.add(1, boolInt(string(want) != string(docs[idx])))
	}

	values := map[string]float64{}
	defs := endToEnd
	if traced {
		defs = perLayer
		layerValues(values, ss, cs, sv, trs, trs.cal.cost(), b)
		values["setup.replay_ms"] = median(replayMs)
		values["setup.warmup_ms"] = median(warmMs)
	} else {
		values["setup_s"] = slices.Min(setupS)
		values["step_ns"] = perStep(ss.logSerial)
		values["step_ns_b8"] = perStep(ss.logBatched)
		values["campaign_inj_per_s"] = injPerSecond(cs.logSerial, cs.injSerial)
		values["campaign_inj_per_s_b8"] = injPerSecond(cs.logBatched, cs.injBatched)
		values["heap_peak_mb"] = float64(peak) / (1 << 20)
	}
	fmt.Fprintf(os.Stderr, "%s: %d set-ups, %d step ops, %d campaign ops, %d cold + %d duplicate sdcd requests\n",
		w.name, len(setupS), ss.ops, cs.ops, len(sv.coldMs), len(sv.hitMs))
	m, err := fill(defs, values)
	if err != nil {
		return res, err
	}
	res.Metrics = m
	res.Attempted, res.Failed, res.Correct = chk.attempted, chk.failed, chk.failed == 0
	return res, nil
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// setUp builds every cell, runs one untimed warm-up step op per cell on
// both engines and, on a workload with sdcd traffic, opens the sdcd server
// on the pre-seeded data directory (journal replay and cache warm). It
// returns the set-up time in seconds and its replay and warm-up parts in
// milliseconds.
func setUp(w *workload, dir string, chk *checks) (*bench, float64, float64, float64, error) {
	start := time.Now()
	b := &bench{}
	for _, c := range w.cells() {
		sc, err := newStepCell(w, c)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		cc, err := newCampCell(w, c)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		b.steps = append(b.steps, sc)
		b.camps = append(b.camps, cc)
	}
	warm := time.Now()
	for _, sc := range b.steps {
		sc.states = make([]la.Vec, lanes)
		for i := range sc.states {
			sc.states[i] = sc.p.X0.Clone()
		}
		if _, err := sc.runSerial(nil); err != nil {
			return nil, 0, 0, 0, err
		}
		_, bad, err := sc.runBatch(nil)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		chk.add(lanes, bad)
	}
	warmMs := msSince(warm)
	var replayMs float64
	if dir != "" {
		replay := time.Now()
		ep, err := openEndpoint(dir)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		b.ep = ep
		replayMs = msSince(replay)
	}
	return b, time.Since(start).Seconds(), replayMs, warmMs, nil
}

// close shuts the bench's sdcd endpoint down, if it has one.
func (b *bench) close() error {
	if b.ep == nil {
		return nil
	}
	return b.ep.close()
}

// retainedHeap forces a collection and returns the live heap in bytes. The
// second collection empties the sync.Pool caches the first only demotes,
// so what they happen to hold from the last op does not count.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// layerValues computes the per-layer split of a traced run.
func layerValues(v map[string]float64, ss stepStats, cs campStats, sv srvStats, trs *tracers, c spanCost, b *bench) {
	ts, tb := trs.serial, trs.batched
	steps := float64(ss.tSerial.steps)
	v["ode.step_self_ns"] = ts.selfNs(lStep, c) / steps
	v["ode.trials_per_step"] = float64(ss.tSerial.trials) / steps
	v["problems.eval_ns_per_step"] = ts.selfNs(lEval, c) / steps
	v["problems.evals_per_step"] = float64(ts.count[lEval]) / steps
	v["core.validate_self_ns"] = ts.selfNs(lValidate, c) / steps
	v["core.validates_per_step"] = float64(ts.count[lValidate]) / steps
	v["core.mean_order"] = ss.tSerial.orderW / steps
	var bytes float64
	for _, sc := range b.steps {
		bytes += computedBytes(sc)
	}
	v["la.computed_bytes_per_step"] = bytes / float64(len(b.steps)) * float64(ss.tSerial.trials) / steps

	bsteps := float64(ss.tBatched.steps)
	rounds := float64(ss.tBatched.rounds)
	v["batch.round_ns"] = (tb.selfNs(lRound, c) + tb.selfNs(lEval, c) + tb.selfNs(lPlanFinish, c) + tb.selfNs(lValidate, c)) / rounds
	v["batch.steps_per_round"] = bsteps / rounds
	v["batch.eval_ns_per_step"] = tb.selfNs(lEval, c) / bsteps
	v["batch.plan_finish_ns_per_step"] = tb.selfNs(lPlanFinish, c) / bsteps
	v["batch.self_ns_per_step"] = tb.selfNs(lRound, c) / bsteps
	v["batch.vs_serial"] = perStep(ss.logBatched) / perStep(ss.logSerial)

	n := float64(len(cs.batchedMs))
	v["harness.campaign_ms_p50"] = quantile(cs.batchedMs, 0.5)
	v["harness.campaign_ms_p90"] = quantile(cs.batchedMs, 0.9)
	v["harness.reps_merged"] = float64(cs.tBatched.runs) / n
	v["harness.reps_executed"] = float64(cs.tBatched.executed) / n
	v["harness.reps_used_frac"] = float64(cs.tBatched.runs) / float64(cs.tBatched.executed)
	tc := trs.camp
	v["harness.shadow_evals_per_step"] = float64(tc.count[lEval]-cs.tSerial.evals) / float64(cs.tSerial.steps)
	v["harness.eval_share"] = tc.selfNs(lEval, c) / (tc.selfNs(lEval, c) + tc.selfNs(lCampaign, c))
	v["inject.injections_per_rep"] = float64(cs.tSerial.injections) / float64(cs.tSerial.runs)

	// A workload without sdcd traffic reports 0 for the server's figures.
	a, p := sv.after, sv.before
	v["sdcd_shards_per_s"] = 0
	if sv.ns > 0 {
		v["sdcd_shards_per_s"] = float64(a.ShardsRun-p.ShardsRun) / (float64(sv.ns) / 1e9)
	}
	v["sdcd_cold_p50_ms"] = quantile(sv.coldMs, 0.5)
	v["sdcd_cold_p90_ms"] = quantile(sv.coldMs, 0.9)
	v["sdcd_hit_p50_ms"] = quantile(sv.hitMs, 0.5)
	v["sdcd_hit_p90_ms"] = quantile(sv.hitMs, 0.9)
	v["server.post_hit_ms_p50"] = quantile(sv.postHitMs, 0.5)
	v["server.post_cold_ms_p50"] = quantile(sv.postColdMs, 0.5)
	v["server.inflight_ms_p50"] = quantile(sv.inflightMs, 0.5)
	v["server.http_overhead_ms_p50"] = quantile(sv.httpMs, 0.5)
	v["server.queue_depth_max"] = float64(a.MaxQueueDepth)
	v["server.shards_run"] = float64(a.ShardsRun - p.ShardsRun)
	v["server.replicates_run"] = float64(a.ReplicatesRun - p.ReplicatesRun)
	v["server.cache_hits"] = float64(a.CacheHits - p.CacheHits)
	v["server.shard_cache_hits"] = float64(a.ShardCacheHits - p.ShardCacheHits)
	v["server.disk_hits"] = float64(a.DiskHits - p.DiskHits)
	v["server.rejected_503"] = float64(sv.rejected)
	v["store.journal_records"] = float64(a.JournalRecords - p.JournalRecords)
	v["store.bytes_written"] = float64(sv.bytesWritten)

	untraced := float64(ss.serial.ns + ss.batched.ns + cs.serial.ns + cs.batched.ns)
	tracedNs := float64(ss.tSerial.ns + ss.tBatched.ns + cs.tSerial.ns + cs.tBatched.ns)
	v["trace.overhead_frac"] = (tracedNs - untraced) / untraced
	var opSelf, all float64
	for _, t := range []*tracer{trs.serial, trs.batched, trs.camp, trs.campB8, trs.http} {
		opSelf += t.selfNs(lOp, c)
		for l := layer(0); l < nLayers; l++ {
			all += t.selfNs(l, c)
		}
	}
	v["trace.unattributed_frac"] = opSelf / all
}

// computedBytes is the stage-arithmetic traffic of one trial of sc's pair,
// computed (not measured) from dim × stages: stage i reads the state and i
// stage vectors and writes one state, and the proposal and error
// accumulations each read the state and every stage and write one vector.
func computedBytes(sc *stepCell) float64 {
	s := sc.tab.Stages()
	vecs := 0
	for i := 1; i < s; i++ {
		vecs += i + 2
	}
	vecs += 2 * (s + 2)
	return float64(8 * len(sc.p.X0) * vecs)
}
