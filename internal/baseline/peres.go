package baseline

import (
	"fmt"
	"time"

	"etrain/internal/sched"
	"etrain/internal/workload"
)

// PerES reimplements the PerES scheduler [15] from the paper's description:
// a Lyapunov-framework strategy with 1-second slots that
//
//   - estimates the instantaneous wireless bandwidth and transmits
//     opportunistically when the channel is good relative to its average,
//   - is deadline-aware: packets about to violate their deadline are
//     transmitted unconditionally, and
//   - adapts its tradeoff parameter V dynamically so the time-averaged
//     delay cost converges to the user's performance cost bound Ω.
//
// Because decisions hinge on a noisy, lagged channel estimate, PerES
// fragments transmissions more than eTrain and never aligns them with
// heartbeat tails.
type PerESOptions struct {
	// Omega is the user's performance cost bound Ω.
	Omega float64
	// InitialV seeds the dynamic tradeoff parameter.
	InitialV float64
	// MinV and MaxV clamp the adaptation.
	MinV, MaxV float64
	// Gamma is the multiplicative adaptation step per slot.
	Gamma float64
	// Slot is the decision period; 1 s if zero.
	Slot time.Duration
}

// DefaultPerESOptions returns the adaptation constants used in the
// reproduction's experiments.
func DefaultPerESOptions(omega float64) PerESOptions {
	return PerESOptions{
		Omega:    omega,
		InitialV: 2.0,
		MinV:     0.05,
		MaxV:     200,
		Gamma:    0.01,
		Slot:     time.Second,
	}
}

// PerES is the deadline-aware channel-dependent comparator.
type PerES struct {
	opts PerESOptions
	v    float64
	// emaCost is the exponential moving average of the instantaneous cost,
	// the signal V converges against.
	emaCost float64
}

var _ sched.Strategy = (*PerES)(nil)

// defaultVRange spans MinV to the default MaxV of the V-parameter search.
// V here is PerES's Lyapunov control knob (the paper's V), not volts.
const defaultVRange = 1000

// NewPerES returns a PerES instance.
func NewPerES(opts PerESOptions) (*PerES, error) {
	if opts.Omega < 0 {
		return nil, fmt.Errorf("baseline: negative Omega %v", opts.Omega)
	}
	if opts.Slot == 0 {
		opts.Slot = time.Second
	}
	if opts.InitialV <= 0 {
		opts.InitialV = 2.0
	}
	if opts.MinV <= 0 {
		opts.MinV = 0.05
	}
	if opts.MaxV < opts.MinV {
		opts.MaxV = opts.MinV * defaultVRange
	}
	if opts.Gamma <= 0 {
		opts.Gamma = 0.01
	}
	return &PerES{opts: opts, v: opts.InitialV}, nil
}

// Name implements sched.Strategy.
func (*PerES) Name() string { return "peres" }

// SlotLength implements sched.Strategy.
func (p *PerES) SlotLength() time.Duration { return p.opts.Slot }

// V exposes the current tradeoff parameter (for tests and traces).
func (p *PerES) V() float64 { return p.v }

// Schedule implements sched.Strategy.
func (p *PerES) Schedule(ctx *sched.SlotContext) []workload.Packet {
	q := ctx.Queues
	cost := q.CostAt(ctx.Now)

	// Dynamic V: converge the time-averaged cost to Ω.
	const emaAlpha = 0.05
	p.emaCost = (1-emaAlpha)*p.emaCost + emaAlpha*cost
	if p.emaCost > p.opts.Omega {
		p.v *= 1 - p.opts.Gamma
		if p.v < p.opts.MinV {
			p.v = p.opts.MinV
		}
	} else {
		p.v *= 1 + p.opts.Gamma
		if p.v > p.opts.MaxV {
			p.v = p.opts.MaxV
		}
	}

	if q.Len() == 0 {
		return nil
	}

	// Deadline-awareness: anything violating its deadline by the next slot
	// is transmitted unconditionally.
	var selected []workload.Packet
	for i := 0; i < q.NumApps(); i++ {
		for j := 0; j < len(q.AppView(i)); {
			if q.AppView(i)[j].DeadlineViolated(ctx.Now + ctx.SlotLength) {
				selected = append(selected, q.RemoveAt(i, j))
			} else {
				j++
			}
		}
	}

	// Opportunistic drain when the (estimated) channel is good enough that
	// the V-weighted backlog justifies transmitting.
	quality := 1.0
	if ctx.EstimateBandwidth != nil && ctx.MeanBandwidth > 0 {
		quality = ctx.EstimateBandwidth() / ctx.MeanBandwidth
	}
	backlog := q.CostAt(ctx.Now + ctx.SlotLength)
	if backlog*quality >= p.v {
		selected = append(selected, DrainAll(q)...)
	}
	return selected
}
