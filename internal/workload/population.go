package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"etrain/internal/randx"
)

// ClassShare weights one activeness class within a synthesized device
// population, generalizing the three fixed groups of the paper's Fig. 11
// deployment to arbitrary mixes.
type ClassShare struct {
	// Class is the activeness class.
	Class ActivenessClass
	// Weight is the class's relative share; shares need not sum to 1.
	Weight float64
}

// ParseClass converts a mix-flag token to an ActivenessClass.
func ParseClass(s string) (ActivenessClass, error) {
	switch s {
	case "active":
		return ClassActive, nil
	case "moderate":
		return ClassModerate, nil
	case "inactive":
		return ClassInactive, nil
	default:
		return 0, fmt.Errorf("workload: unknown activeness class %q", s)
	}
}

// DefaultMix returns the population mix used for population-scale Fig. 11
// runs. The paper reports per-class savings over 100+ deployed users but
// not the group sizes; this mix assumes the familiar engagement pyramid —
// most users inactive, a thin highly-active head.
func DefaultMix() []ClassShare {
	return []ClassShare{
		{Class: ClassActive, Weight: 0.2},
		{Class: ClassModerate, Weight: 0.3},
		{Class: ClassInactive, Weight: 0.5},
	}
}

// Population deterministically assigns activeness classes by mix weight.
type Population struct {
	shares []ClassShare
	cum    []float64 // cumulative weights, cum[len-1] = total
}

// NewPopulation validates a class mix and returns its sampler.
func NewPopulation(mix []ClassShare) (*Population, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("workload: empty class mix")
	}
	p := &Population{
		shares: append([]ClassShare(nil), mix...),
		cum:    make([]float64, len(mix)),
	}
	total := 0.0
	for i, s := range mix {
		switch s.Class {
		case ClassActive, ClassModerate, ClassInactive:
		default:
			return nil, fmt.Errorf("workload: mix entry %d has unknown class %v", i, s.Class)
		}
		if s.Weight <= 0 || math.IsInf(s.Weight, 0) || math.IsNaN(s.Weight) {
			return nil, fmt.Errorf("workload: mix entry %d (%s) has non-positive weight %v", i, s.Class, s.Weight)
		}
		total += s.Weight
		p.cum[i] = total
	}
	return p, nil
}

// Shares returns a copy of the mix entries in declaration order.
func (p *Population) Shares() []ClassShare {
	return append([]ClassShare(nil), p.shares...)
}

// Pick maps a uniform draw u ∈ [0, 1) to a mix entry: the index into
// Shares and its class. The assignment is a pure function of u, so a
// device whose u is derived from its identity gets the same class no
// matter which worker simulates it.
func (p *Population) Pick(u float64) (int, ActivenessClass) {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	target := u * p.cum[len(p.cum)-1]
	i := sort.SearchFloat64s(p.cum, target)
	// SearchFloat64s returns the first index with cum[i] >= target; a draw
	// landing exactly on a boundary belongs to the next entry.
	if i < len(p.cum) && p.cum[i] == target {
		i++
	}
	if i >= len(p.shares) {
		i = len(p.shares) - 1
	}
	return i, p.shares[i].Class
}

// SynthesizeSession generates a user trace of the requested activeness
// class over a session of the given length: upload events uniformly
// spread through the session with weibo-like sizes, interleaved with
// browse-triggered downloads. Event counts scale linearly with the
// session length relative to the paper's 10-minute app-use window, so a
// class keeps its per-window upload density at any horizon.
// SynthesizeSession(src, id, class, SessionLength) consumes exactly the
// same draws as SynthesizeUser and returns the same trace.
func SynthesizeSession(src *randx.Source, userID string, class ActivenessClass, length time.Duration) []BehaviorRecord {
	uploads := scaleSessionCount(uploadsFor(src, class), length)
	downloads := uploads/2 + src.Intn(uploads+1)
	var records []BehaviorRecord
	for i := 0; i < uploads; i++ {
		records = append(records, BehaviorRecord{
			UserID:   userID,
			Behavior: BehaviorUpload,
			At:       time.Duration(src.Float64() * float64(length)),
			Size:     int64(src.TruncatedNormal(2*1024, 1024, 100)),
		})
	}
	for i := 0; i < downloads; i++ {
		records = append(records, BehaviorRecord{
			UserID:   userID,
			Behavior: BehaviorDownload,
			At:       time.Duration(src.Float64() * float64(length)),
			Size:     int64(src.TruncatedNormal(8*1024, 4*1024, 500)),
		})
	}
	slices.SortStableFunc(records, func(a, b BehaviorRecord) int { return cmp.Compare(a.At, b.At) })
	return records
}

// scaleSessionCount scales a per-10-minute-window event count to the
// session length, keeping at least one event. Scaling by exactly 1.0 is
// the identity, which keeps SynthesizeUser bit-compatible.
func scaleSessionCount(base int, length time.Duration) int {
	scaled := int(math.Round(float64(base) * float64(length) / float64(SessionLength)))
	if scaled < 1 {
		return 1
	}
	return scaled
}
