package workload

import (
	"cmp"
	"math"
	"slices"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/randx"
)

// SynthesizeSessionDiurnal is SynthesizeSession under a diurnal sampler:
// upload counts scale with the activity curve's area over the session
// window instead of flat time, and event instants are placed by
// inverse-CDF over the device's phased curve, so a night-window session
// is sparse and an evening-peak session dense. A nil sampler falls back
// to SynthesizeSession exactly (same draws, same trace).
func SynthesizeSessionDiurnal(src *randx.Source, userID string, class ActivenessClass, length time.Duration, sam *diurnal.Sampler) []BehaviorRecord {
	if sam == nil {
		return SynthesizeSession(src, userID, class, length)
	}
	uploads := scaleDiurnalCount(uploadsFor(src, class), length, sam)
	downloads := uploads/2 + src.Intn(uploads+1)
	var records []BehaviorRecord
	for i := 0; i < uploads; i++ {
		records = append(records, BehaviorRecord{
			UserID:   userID,
			Behavior: BehaviorUpload,
			At:       sam.PlaceInWindow(src.Float64(), length),
			Size:     int64(src.TruncatedNormal(2*1024, 1024, 100)),
		})
	}
	for i := 0; i < downloads; i++ {
		records = append(records, BehaviorRecord{
			UserID:   userID,
			Behavior: BehaviorDownload,
			At:       sam.PlaceInWindow(src.Float64(), length),
			Size:     int64(src.TruncatedNormal(8*1024, 4*1024, 500)),
		})
	}
	slices.SortStableFunc(records, func(a, b BehaviorRecord) int { return cmp.Compare(a.At, b.At) })
	return records
}

// scaleDiurnalCount is scaleSessionCount with the flat window replaced by
// the activity curve's area over it: under a flat level-1 curve the two
// agree for any length.
func scaleDiurnalCount(base int, length time.Duration, sam *diurnal.Sampler) int {
	scaled := int(math.Round(float64(base) * sam.WindowWeight(length) / SessionLength.Seconds()))
	if scaled < 1 {
		return 1
	}
	return scaled
}

// GenerateDiurnal is Generate with each cargo app's homogeneous Poisson
// process replaced by a thinned non-homogeneous one whose rate follows
// the sampler's cargo factor (activity curve × scheduled events). It
// keeps Generate's draw structure — per-app pooled child stream, all
// arrivals before all sizes — and a nil sampler falls back to Generate
// exactly.
func GenerateDiurnal(src *randx.Source, specs []CargoSpec, horizon time.Duration, sam *diurnal.Sampler) ([]Packet, error) {
	if sam == nil {
		return Generate(src, specs, horizon)
	}
	var all []Packet
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		// appSrc is fully drained within this iteration, so it comes from
		// the source pool (mirrors Generate).
		appSrc := src.SplitPooled()
		for _, at := range sam.Arrivals(appSrc, spec.MeanInterArrival, horizon) {
			size := int64(appSrc.TruncatedNormal(spec.SizeMean, spec.SizeStdDev, spec.SizeMin))
			all = append(all, Packet{
				App:       spec.Name,
				ArrivedAt: at,
				Size:      size,
				Profile:   spec.Profile,
			})
		}
		appSrc.Release()
	}
	slices.SortStableFunc(all, func(a, b Packet) int { return cmp.Compare(a.ArrivedAt, b.ArrivedAt) })
	for i := range all {
		all[i].ID = i
	}
	return all, nil
}
