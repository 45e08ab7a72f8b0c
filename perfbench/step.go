package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/batch"
	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
)

// stepCell holds one cell's step-op machinery: the serial integrator, the
// lockstep integrator at width lanes, one right-hand-side instance per lane,
// and the lanes' current states along the step window.
type stepCell struct {
	w    *workload
	c    cell
	p    *problems.Problem
	tab  *ode.Tableau
	syss []ode.System // one instance per lane (PDE systems carry scratch)
	in   *ode.Integrator
	bi   *batch.Integrator

	part   int      // next part of the step window
	states []la.Vec // lane states at the start of that part
	finals []la.Vec // serial final states of the last op
}

func newStepCell(w *workload, c cell) (*stepCell, error) {
	p, err := problems.ByName(w.problem, w.n)
	if err != nil {
		return nil, err
	}
	tab, err := ode.TableauByName(c.method)
	if err != nil {
		return nil, err
	}
	sc := &stepCell{w: w, c: c, p: p, tab: tab}
	ctrl := ode.DefaultController(p.TolA, p.TolR)
	sc.in = &ode.Integrator{Tab: tab, Ctrl: ctrl, MaxStep: p.MaxStep}
	sc.bi = batch.New(batch.Config{Tab: tab, Ctrl: ctrl, MaxStep: p.MaxStep}, lanes, len(p.X0))
	for i := 0; i < lanes; i++ {
		sc.syss = append(sc.syss, p.SysInstance())
		sc.finals = append(sc.finals, la.NewVec(len(p.X0)))
	}
	return sc, nil
}

// window returns the time span of the next op.
func (sc *stepCell) window() (float64, float64) {
	dt := sc.w.stepEnd / float64(sc.w.stepParts)
	return float64(sc.part) * dt, float64(sc.part+1) * dt
}

// detectors builds one fresh detector per lane: both engines start every op
// from the same detector state, so their final states must agree bit for bit.
func (sc *stepCell) detectors() ([]control.Detector, error) {
	dets := make([]control.Detector, lanes)
	for i := range dets {
		d, err := control.New(sc.c.detector, control.Spec{Tab: sc.tab, Sys: sc.syss[i]})
		if err != nil {
			return nil, err
		}
		dets[i] = d
	}
	return dets, nil
}

// engineRun is the outcome of one engine's pass over an op's lanes.
type engineRun struct {
	ns, steps, trials, rounds int64
	orderW                    float64 // Σ mean double-check order × steps
	samples                   rateLog // timed pieces of the op: (ns, trials)
}

// runSerial integrates every lane state through ode.Integrator.Step and
// leaves the final states in sc.finals. Only the Step loop is timed. With a
// tracer, each lane's loop is one op span with a Step span per call.
func (sc *stepCell) runSerial(tr *tracer) (engineRun, error) {
	var r engineRun
	dets, err := sc.detectors()
	if err != nil {
		return r, err
	}
	ta, tb := sc.window()
	for i, x0 := range sc.states {
		var sys ode.System = sc.syss[i]
		v := dets[i].Validator
		if tr != nil {
			sys = &evalSys{inner: sys, tr: tr, evals: new(int64)}
			v = wrapValidator(v, tr)
		}
		sc.in.Validator = v
		sc.in.Init(sys, ta, tb, x0, sc.p.H0)
		start := time.Now()
		if tr == nil {
			for !sc.in.Done() {
				if err := sc.in.Step(); err != nil {
					return r, fmt.Errorf("serial %s/%s lane %d: %w", sc.c.method, sc.c.detector, i, err)
				}
			}
		} else {
			tr.begin(lOp)
			for !sc.in.Done() {
				tr.begin(lStep)
				err := sc.in.Step()
				tr.end()
				if err != nil {
					return r, fmt.Errorf("serial %s/%s lane %d: %w", sc.c.method, sc.c.detector, i, err)
				}
			}
			tr.end()
		}
		ns := int64(time.Since(start))
		r.ns += ns
		r.samples.add(ns, int64(sc.in.Stats.TrialSteps))
		r.steps += int64(sc.in.Stats.Steps)
		r.trials += int64(sc.in.Stats.TrialSteps)
		r.orderW += dets[i].MeanOrder() * float64(sc.in.Stats.Steps)
		sc.finals[i].CopyFrom(sc.in.X())
	}
	return r, nil
}

// runBatch integrates the same lane states through batch.Integrator.Round
// and reports how many lanes disagree with the serial final states.
func (sc *stepCell) runBatch(tr *tracer) (engineRun, int, error) {
	var r engineRun
	dets, err := sc.detectors()
	if err != nil {
		return r, 0, err
	}
	ta, tb := sc.window()
	sc.bi.Reset()
	handles := make([]*batch.Lane, lanes)
	for i, x0 := range sc.states {
		var sys ode.System = sc.syss[i]
		v := dets[i].Validator
		if tr != nil {
			sys = &evalSys{inner: sys, tr: tr, evals: new(int64)}
			v = wrapValidator(v, tr)
		}
		handles[i] = sc.bi.AddLane(batch.LaneConfig{Sys: sys, Validator: v, T0: ta, TEnd: tb, X0: x0, H0: sc.p.H0})
	}
	start := time.Now()
	if tr == nil {
		// Time the rounds in pieces of at least sampleNs, each weighed by
		// the lane trials it ran.
		piece, trials := start, int64(0)
		for more := true; more; {
			more = sc.bi.Round()
			r.rounds++
			if now := time.Now(); now.Sub(piece) >= sampleNs || !more {
				t := laneTrials(handles)
				r.samples.add(int64(now.Sub(piece)), t-trials)
				piece, trials = now, t
			}
		}
	} else {
		tr.begin(lOp)
		for {
			tr.begin(lRound)
			more := sc.bi.Round()
			tr.end()
			r.rounds++
			if !more {
				break
			}
		}
		tr.end()
	}
	r.ns = int64(time.Since(start))
	bad := 0
	for i, ln := range handles {
		st := ln.Stats()
		r.steps += int64(st.Steps)
		r.trials += int64(st.TrialSteps)
		if ln.Err() != nil || !sameBits(ln.X(), sc.finals[i]) {
			bad++
		}
	}
	return r, bad, nil
}

// sampleNs is the shortest piece of a batched op timed on its own.
const sampleNs = 2 * time.Millisecond

func laneTrials(handles []*batch.Lane) int64 {
	var n int64
	for _, ln := range handles {
		n += int64(ln.Stats().TrialSteps)
	}
	return n
}

// advance moves the cell to the next part of the step window: the serial
// final states become the next op's initial states, and after the last part
// the window restarts from fresh seed-derived states.
func (sc *stepCell) advance(g *gen) {
	sc.part++
	if sc.part == sc.w.stepParts {
		sc.part = 0
		sc.states = g.initialStates(sc.p.X0)
		return
	}
	for i := range sc.states {
		sc.states[i].CopyFrom(sc.finals[i])
	}
}

func sameBits(a, b la.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rateLog records timed pieces of work (lane trials for step ops,
// evaluations for campaigns): how many, the units of work they did, and the
// lowest time per unit among them. It keeps no per-piece record, so the
// benchmark's own bookkeeping does not grow with the run.
type rateLog struct {
	n    int
	work float64 // units of work over all pieces
	best float64 // lowest ns per unit of work
}

func (l *rateLog) add(ns, work int64) {
	if work > 0 {
		l.merge(rateLog{n: 1, work: float64(work), best: float64(ns) / float64(work)})
	}
}

func (l *rateLog) merge(o rateLog) {
	if o.n == 0 {
		return
	}
	if l.n == 0 || o.best < l.best {
		l.best = o.best
	}
	l.n += o.n
	l.work += o.work
}

// fastest is the lowest time per unit of work over the pieces. The host
// runs the same code at two speeds, switching within seconds as
// neighbouring load comes and goes; the fastest piece measures the code,
// and the mix of the two speeds during a run does not enter.
func (l *rateLog) fastest() float64 { return l.best }

// meanWork is the mean units of work of one piece.
func (l *rateLog) meanWork() float64 { return l.work / float64(l.n) }

// cellLog is one cell's record on one engine.
type cellLog struct {
	pieces             rateLog
	ops, steps, trials float64
}

func (c *cellLog) add(r engineRun) {
	c.pieces.merge(r.samples)
	c.ops++
	c.steps += float64(r.steps)
	c.trials += float64(r.trials)
}

// perStep is total time over total steps of one op per cell, each cell's
// trials run at its fastest time per trial.
func perStep(cells []cellLog) float64 {
	var ns, steps float64
	for _, c := range cells {
		ns += c.pieces.fastest() * c.trials / c.ops
		steps += c.steps / c.ops
	}
	return ns / steps
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stepStats accumulates the step ops. The untraced figures feed the
// end-to-end metrics; in a traced run every op also runs a second time
// under the tracers, and those passes land in tSerial/tBatched.
type stepStats struct {
	serial, batched   engineRun
	tSerial, tBatched engineRun
	logSerial         []cellLog // per cell
	logBatched        []cellLog
	ops               int
}

// stepOp runs the next cell's op on both engines (round-robin over the
// cells) and checks the batched lanes against the serial final states.
func stepOp(cells []*stepCell, g *gen, st *stepStats, chk *checks, trs *tracers) error {
	if st.logSerial == nil {
		st.logSerial = make([]cellLog, len(cells))
		st.logBatched = make([]cellLog, len(cells))
	}
	i := st.ops % len(cells)
	sc := cells[i]
	rs, err := sc.runSerial(nil)
	if err != nil {
		return err
	}
	rb, bad, err := sc.runBatch(nil)
	if err != nil {
		return err
	}
	chk.add(lanes, bad)
	if trs != nil {
		ts, err := sc.runSerial(trs.serial)
		if err != nil {
			return err
		}
		tb, bad, err := sc.runBatch(trs.batched)
		if err != nil {
			return err
		}
		chk.add(lanes, bad)
		st.tSerial.add(ts)
		st.tBatched.add(tb)
	}
	sc.advance(g)
	st.serial.add(rs)
	st.batched.add(rb)
	st.logSerial[i].add(rs)
	st.logBatched[i].add(rb)
	st.ops++
	return nil
}

// add sums the counters of o into r; timed pieces stay with the cells.
func (r *engineRun) add(o engineRun) {
	r.ns += o.ns
	r.steps += o.steps
	r.trials += o.trials
	r.rounds += o.rounds
	r.orderW += o.orderW
}
