package main

import (
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/problems"
	"repro/internal/server"
	"repro/internal/xrand"
)

// workload is one input class. Every workload runs step ops and campaign
// ops on its own cells, so each end-to-end metric is measured on every
// workload from that workload's own inputs; what differs is which layer the
// inputs make expensive. Only sdcd-mix also sends sdcd requests (see
// README.md for why each workload exists).
type workload struct {
	name    string
	problem string
	n       int // grid resolution passed to problems.ByName (0 for ODEs)

	methods   []string // embedded pairs; cells are methods × detectors
	detectors []string

	// Step ops integrate 8 initial conditions over one part of the window
	// [0, stepEnd] split into stepParts, continuing from the previous op's
	// final states and re-initialising after the last part.
	stepEnd   float64
	stepParts int
	perturb   float64 // size of the seed-derived initial-condition perturbation

	// Campaign ops: harness campaigns of the cells with these overrides.
	campTEnd   float64 // integration horizon per replicate (0 = problem default)
	campMinInj int
	campProb   float64 // injections per evaluation (0 = harness default 0.01)

	// sdcd requests: 2-seed campaigns of the cells with these overrides
	// (srvMinInj 0 = no sdcd traffic).
	srvTEnd   float64
	srvMinInj int
	srvProb   float64

	// share of the timed budget given to the step, campaign, sdcd and
	// set-up ops (an untraced run caps its sdcd ops at checkBlocks blocks).
	shares [4]float64
}

var workloads = []*workload{
	{
		name: "osc", problem: "oscillator",
		methods: []string{"heun-euler", "bogacki-shampine"}, detectors: []string{"lbdc", "ibdc"},
		stepEnd: 20, stepParts: 8, perturb: 0.5,
		campTEnd: 5, campMinInj: 100,
		shares: [4]float64{0.45, 0.45, 0, 0.1},
	},
	{
		name: "burgers-1k", problem: "burgers", n: 1024,
		methods: []string{"heun-euler", "bogacki-shampine"}, detectors: []string{"lbdc", "ibdc"},
		stepEnd: 0.25, stepParts: 16, perturb: 0.02,
		campTEnd: 0.005, campMinInj: 20, campProb: 0.05,
		shares: [4]float64{0.4, 0.4, 0, 0.2},
	},
	{
		name: "sdcd-mix", problem: "oscillator",
		methods: []string{"dormand-prince", "cash-karp"}, detectors: []string{"lbdc", "ibdc"},
		stepEnd: 20, stepParts: 2, perturb: 0.5,
		campTEnd: 5, campMinInj: 100,
		srvTEnd: 2, srvMinInj: 150,
		shares: [4]float64{0.2, 0.2, 0.5, 0.1},
	},
}

// serves reports whether the workload sends sdcd requests.
func (w *workload) serves() bool { return w.srvMinInj > 0 }

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// cell is one (method, detector) pair of a workload.
type cell struct{ method, detector string }

func (w *workload) cells() []cell {
	var cs []cell
	for _, m := range w.methods {
		for _, d := range w.detectors {
			cs = append(cs, cell{m, d})
		}
	}
	return cs
}

// lanes is the lockstep width of the batched engine and the number of
// initial conditions one step op integrates.
const lanes = 8

// gen derives every input of a run from the seed argument: the initial
// conditions of the step ops, the campaign seeds, and the sdcd traffic.
// Each input class draws from its own substream, so how far a run gets in
// one phase never shifts the inputs of another.
type gen struct {
	w    *workload
	ic   *xrand.RNG
	camp *xrand.RNG
	srv  *xrand.RNG
	used map[uint64]bool // sdcd seeds handed out so far (cold specs never repeat)
	pool []server.Spec   // every cold spec handed out, pre-seeded ones first
	nPre int             // pre-seeded specs: the ones duplicates repeat
	dups []int           // pre-seeded specs still to repeat in this pass
}

func newGen(w *workload, seed uint64) *gen {
	root := xrand.New(seed)
	return &gen{w: w, ic: root.Split(1), camp: root.Split(2), srv: root.Split(3), used: map[uint64]bool{}}
}

// initialStates returns the lanes initial conditions of a step op starting
// at t = 0: the problem's initial state under a seed-derived perturbation.
func (g *gen) initialStates(x0 la.Vec) []la.Vec {
	out := make([]la.Vec, lanes)
	for i := range out {
		x := x0.Clone()
		switch len(x) {
		case 2: // oscillator: a point on a circle of seed-derived radius and phase
			r := 1 + g.w.perturb*(2*g.ic.Float64()-1)
			phi := 2 * math.Pi * g.ic.Float64()
			x[0], x[1] = r*math.Cos(phi), -r*math.Sin(phi)
		default: // PDE: add a smooth second mode, small enough to stay pre-shock
			a := g.w.perturb * g.ic.Float64()
			phi := 2 * math.Pi * g.ic.Float64()
			for j := range x {
				x[j] += a * math.Sin(4*math.Pi*(float64(j)+0.5)/float64(len(x))+phi)
			}
		}
		out[i] = x
	}
	return out
}

// campaignSeed returns the root seed of the next campaign op.
func (g *gen) campaignSeed() uint64 { return g.camp.Uint64() }

// coldSpec returns a fresh 2-seed sdcd campaign of cell c.
func (g *gen) coldSpec(c cell) server.Spec {
	spec := server.Spec{
		Problem: g.w.problem, N: g.w.n, Method: c.method, Detector: c.detector,
		Injector: "scaled", MinInjections: g.w.srvMinInj, InjectProb: g.w.srvProb, TEnd: g.w.srvTEnd,
	}
	for len(spec.Seeds) < 2 {
		s := g.srv.Uint64() >> 1
		if !g.used[s] {
			g.used[s] = true
			spec.Seeds = append(spec.Seeds, s)
		}
	}
	if spec.N == 0 {
		spec.N = problems.DefaultGrid
	}
	g.pool = append(g.pool, spec)
	return spec
}

// request is one sdcd request of the closed-loop client: a cold campaign
// or an exact duplicate of an earlier one.
type request struct {
	idx  int // index of the campaign in gen.pool
	cell int // index of its cell in workload.cells
	cold bool
}

// preseed returns the campaigns submitted to the data directory before the
// run starts; the server replays them at set-up and duplicates may repeat
// them.
func (g *gen) preseed(n int) []server.Spec {
	cs := g.w.cells()
	specs := make([]server.Spec, n)
	for i := range specs {
		specs[i] = g.coldSpec(cs[i%len(cs)])
	}
	g.nPre = n
	return specs
}

// nextBlock returns the next block of sdcd requests: one cold campaign per
// cell and as many exact duplicates of pre-seeded campaigns, in a
// seed-derived order. The mix is the one the server's load test
// (TestServerLoadSmoke in internal/server) drives: half the submissions are
// distinct cold specs, half repeat one of a fixed set of finished specs,
// spread evenly over that set — here each pass over the pre-seeded set
// visits every campaign once, in a seed-derived order. Fixed proportions
// keep the cold/duplicate mix, and the cell mix of the cold class, identical
// in every block.
func (g *gen) nextBlock() []request {
	cs := g.w.cells()
	kinds := make([]bool, 2*len(cs)) // true = cold
	for i := range cs {
		kinds[i] = true
	}
	order := g.srv.Perm(len(kinds))
	cellOrder := g.srv.Perm(len(cs))
	block := make([]request, 0, len(kinds))
	next := 0
	for _, k := range order {
		if kinds[k] {
			g.coldSpec(cs[cellOrder[next]])
			block = append(block, request{idx: len(g.pool) - 1, cell: cellOrder[next], cold: true})
			next++
			continue
		}
		if len(g.dups) == 0 {
			g.dups = g.srv.Perm(g.nPre)
		}
		block = append(block, request{idx: g.dups[0]})
		g.dups = g.dups[1:]
	}
	return block
}
