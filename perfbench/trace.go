package main

import (
	"sort"
	"time"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
)

// layer names a span kind of the traced run. Spans are recorded from the
// benchmark's own files, around the calls it makes into each layer's public
// functions; nothing inside the program is instrumented.
type layer int

const (
	lOp         layer = iota // one benchmark op: the root span, not a program layer
	lStep                    // ode.Integrator.Step
	lRound                   // batch.Integrator.Round
	lEval                    // System.Eval: the right-hand side (problems, weno)
	lValidate                // Validator.Validate: the detector's scalar double-check (core)
	lPlanFinish              // BatchValidator.PlanBatch and FinishBatch (core, batched seam)
	lCampaign                // harness.RunContext
	lHTTP                    // one loopback HTTP call into the sdcd server
	nLayers
)

type frame struct {
	l     layer
	start int64
	child int64 // time covered by direct child spans
}

// tracer accumulates per-layer self time (a span's duration minus the part
// its child spans cover) and span counts. It is used from one goroutine.
type tracer struct {
	base  time.Time
	stack []frame
	self  [nLayers]int64
	count [nLayers]int64
	kids  [nLayers]int64 // direct child spans opened under spans of this layer
}

func newTracer() *tracer { return &tracer{base: time.Now(), stack: make([]frame, 0, 8)} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span of layer l; like end, it does nothing on a nil tracer.
func (t *tracer) begin(l layer) {
	if t != nil {
		t.stack = append(t.stack, frame{l: l, start: t.now()})
	}
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := t.now() - f.start
	t.self[f.l] += d - f.child
	t.count[f.l]++
	if n > 0 {
		t.stack[n-1].child += d
		t.kids[t.stack[n-1].l]++
	}
}

// spanCost is the calibrated cost of the timer itself: leaf is the duration
// an empty span measures for itself, kid the extra time a parent sees per
// direct child beyond the child's own measured duration.
type spanCost struct{ leaf, kid float64 }

// calibration samples the timer's own cost between the traced ops, so the
// estimate sees the same mix of host speeds as the spans it corrects.
type calibration struct{ leaf, kid []float64 }

// sample times a batch of empty spans nested under a parent span.
func (c *calibration) sample() {
	const n = 256
	t := newTracer()
	t.begin(lOp)
	for i := 0; i < n; i++ {
		t.begin(lEval)
		t.end()
	}
	t.end()
	c.leaf = append(c.leaf, float64(t.self[lEval])/n)
	c.kid = append(c.kid, float64(t.self[lOp])/n)
}

func (c *calibration) cost() spanCost { return spanCost{leaf: mean(c.leaf), kid: mean(c.kid)} }

// selfNs returns layer l's self time with the timer cost removed.
func (t *tracer) selfNs(l layer, c spanCost) float64 {
	return float64(t.self[l]) - float64(t.count[l])*c.leaf - float64(t.kids[l])*c.kid
}

// evalSys counts every right-hand-side evaluation and, with a tracer,
// times it.
type evalSys struct {
	inner ode.System
	tr    *tracer
	evals *int64
}

func (s *evalSys) Dim() int { return s.inner.Dim() }

func (s *evalSys) Eval(t float64, x, dst la.Vec) {
	*s.evals++
	s.tr.begin(lEval)
	s.inner.Eval(t, x, dst)
	s.tr.end()
}

// tracedValidator times the scalar double-check.
type tracedValidator struct {
	inner ode.Validator
	tr    *tracer
}

func (v *tracedValidator) Validate(c *ode.CheckContext) ode.Verdict {
	v.tr.begin(lValidate)
	verdict := v.inner.Validate(c)
	v.tr.end()
	return verdict
}

// tracedBatchValidator also times the batched seam. It exists so a wrapped
// validator keeps control.BatchValidator exactly when the inner one has it:
// the lockstep engine probes for that interface, and a wrapper without it
// would silently move the traced run onto the scalar fallback.
type tracedBatchValidator struct {
	tracedValidator
	bv control.BatchValidator
}

func (v *tracedBatchValidator) PlanBatch(c *ode.CheckContext, plan *ode.EstimatePlan) bool {
	v.tr.begin(lPlanFinish)
	need := v.bv.PlanBatch(c, plan)
	v.tr.end()
	return need
}

func (v *tracedBatchValidator) FinishBatch(c *ode.CheckContext, sErr2 float64) ode.Verdict {
	v.tr.begin(lPlanFinish)
	verdict := v.bv.FinishBatch(c, sErr2)
	v.tr.end()
	return verdict
}

// wrapValidator returns v timed by tr, preserving its interface set.
func wrapValidator(v ode.Validator, tr *tracer) ode.Validator {
	if v == nil {
		return nil
	}
	tv := tracedValidator{inner: v, tr: tr}
	if bv, ok := v.(control.BatchValidator); ok {
		return &tracedBatchValidator{tracedValidator: tv, bv: bv}
	}
	return &tv
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
