package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
)

// campCell is one cell's campaign configuration.
type campCell struct {
	c   cell
	cfg harness.Config
}

func newCampCell(w *workload, c cell) (*campCell, error) {
	p, err := problems.ByName(w.problem, w.n)
	if err != nil {
		return nil, err
	}
	if w.campTEnd > 0 {
		p.TEnd = w.campTEnd
	}
	tab, err := ode.TableauByName(c.method)
	if err != nil {
		return nil, err
	}
	return &campCell{c: c, cfg: harness.Config{
		Problem: p, Tab: tab, Injector: inject.Scaled{}, InjectProb: w.campProb,
		Detector: harness.DetectorKind(c.detector), MinInjections: w.campMinInj, Workers: 1,
	}}, nil
}

// campRun is the outcome of one campaign op on one engine.
type campRun struct {
	ns         int64
	injections int64 // merged injections
	runs       int64 // merged replicates
	steps      int64
	evals      int64 // Result.Evals: the merged replicates' own evaluations
	allEvals   int64 // every evaluation executed, shadow and discarded lanes included
	executed   int64 // replicates started (Problem.NewSys calls)
}

func (r *campRun) add(o campRun) {
	r.ns += o.ns
	r.injections += o.injections
	r.runs += o.runs
	r.steps += o.steps
	r.evals += o.evals
	r.allEvals += o.allEvals
	r.executed += o.executed
}

// run executes the cell's campaign with the given seed and lane width. The
// problem's system factory is wrapped to count replicate starts and every
// right-hand-side evaluation (the shadow ground-truth recomputes and
// discarded lanes included); with a tracer the evaluations are also timed.
func (cc *campCell) run(seed uint64, width int, tr *tracer) (campRun, string, error) {
	cfg := cc.cfg
	cfg.Seed = seed
	cfg.Batch = width
	var r campRun
	p := *cfg.Problem
	inner := cfg.Problem
	p.NewSys = func() ode.System {
		r.executed++
		return &evalSys{inner: inner.SysInstance(), tr: tr, evals: &r.allEvals}
	}
	cfg.Problem = &p
	start := time.Now()
	tr.begin(lOp)
	tr.begin(lCampaign)
	res, err := harness.RunContext(context.Background(), cfg)
	tr.end()
	tr.end()
	r.ns = int64(time.Since(start))
	if err != nil {
		return r, "", fmt.Errorf("campaign %s/%s seed %d batch %d: %w", cc.c.method, cc.c.detector, seed, width, err)
	}
	r.injections = int64(res.Rates.Injections)
	r.runs = int64(res.Rates.Runs)
	r.steps = int64(res.Steps)
	r.evals = res.Evals
	return r, fmt.Sprintf("%+v", res.Canonical()), nil
}

// campStats accumulates the campaign ops.
type campStats struct {
	serial, batched   campRun
	tSerial, tBatched campRun
	logSerial         []rateLog // per cell: time per executed evaluation
	logBatched        []rateLog
	injSerial         []float64 // per cell: merged injections per op
	injBatched        []float64
	batchedMs         []float64 // traced runs: wall time of every untraced batched campaign
	ops               int
}

// campaignOp runs the next cell's campaign on the serial engine and again,
// with the same seed, at lane width 8. The batched result must equal the
// serial one bit for bit.
func campaignOp(cells []*campCell, g *gen, st *campStats, chk *checks, trs *tracers) error {
	if st.logSerial == nil {
		st.logSerial = make([]rateLog, len(cells))
		st.logBatched = make([]rateLog, len(cells))
		st.injSerial = make([]float64, len(cells))
		st.injBatched = make([]float64, len(cells))
	}
	i := st.ops % len(cells)
	cc := cells[i]
	seed := g.campaignSeed()
	rs, want, err := cc.run(seed, 0, nil)
	if err != nil {
		return err
	}
	rb, got, err := cc.run(seed, lanes, nil)
	if err != nil {
		return err
	}
	chk.add(1, boolInt(got != want))
	if trs != nil {
		ts, got, err := cc.run(seed, 0, trs.camp)
		if err != nil {
			return err
		}
		chk.add(1, boolInt(got != want))
		tb, got, err := cc.run(seed, lanes, trs.campB8)
		if err != nil {
			return err
		}
		chk.add(1, boolInt(got != want))
		st.tSerial.add(ts)
		st.tBatched.add(tb)
	}
	st.serial.add(rs)
	st.batched.add(rb)
	st.logSerial[i].add(rs.ns, rs.allEvals)
	st.logBatched[i].add(rb.ns, rb.allEvals)
	st.injSerial[i] += float64(rs.injections)
	st.injBatched[i] += float64(rb.injections)
	if trs != nil {
		st.batchedMs = append(st.batchedMs, float64(rb.ns)/1e6)
	}
	st.ops++
	return nil
}

// injPerSecond is merged injections per second of one campaign per cell,
// each cell's evaluations executed at its fastest time per evaluation.
// Evaluations count everything a campaign executes — shadow recomputes and
// discarded speculative lanes included — so waste still counts against it.
func injPerSecond(logs []rateLog, inj []float64) float64 {
	var n, ns float64
	for i := range logs {
		n += inj[i] / float64(logs[i].n)
		ns += logs[i].fastest() * logs[i].meanWork()
	}
	return n / (ns / 1e9)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
