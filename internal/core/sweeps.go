package core

import "azureobs/internal/core/sched"

// Size sweeps: the paper ran the table experiment at entity sizes 1, 4, 16
// and 64 kB and the queue experiment at message sizes 512 B, 1, 4 and 8 kB,
// reporting that "the shape of the performance curves for different entity
// sizes are similar" (Section 3.2) and likewise for queues (Section 3.3) —
// with the single exception of the 64 kB insert/delete overload at 128/192
// clients. These sweeps regenerate that claim.

// PaperEntitySizes are the entity sizes of Section 3.2.
func PaperEntitySizes() []int { return []int{1024, 4096, 16384, 65536} }

// PaperMessageSizes are the message sizes of Section 3.3.
func PaperMessageSizes() []int { return []int{512, 1024, 4096, 8192} }

// Fig2SizeSweep runs the table experiment at each entity size.
type Fig2SizeSweep struct {
	Sizes   []int
	Results []*Fig2Result
}

// RunFig2Sizes executes the entity-size sweep with a shared base config.
// The (size, level) grid is flattened into one domainBatches call so a
// sweep saturates base.Workers even when single sizes have few ladder
// levels.
func RunFig2Sizes(base Fig2Config, sizes []int) *Fig2SizeSweep {
	if sizes == nil {
		sizes = PaperEntitySizes()
	}
	cfgs := make([]Fig2Config, len(sizes))
	for si, s := range sizes {
		cfg := base
		cfg.EntitySize = s
		cfg.Seed = base.Seed + uint64(s)
		cfgs[si] = cfg.withDefaults()
	}
	levels := len(cfgs[0].Clients)
	pts := fig2Levels(cfgs)
	sw := &Fig2SizeSweep{Sizes: sizes}
	for si, s := range sizes {
		sw.Results = append(sw.Results, &Fig2Result{
			EntitySize: s,
			Points:     pts[si*levels : (si+1)*levels],
		})
	}
	return sw
}

// Anchors reports the sweep's headline claim: the concurrency curves keep
// their shape across entity sizes (worst insert-curve deviation vs the
// smallest size, as a percentage — the paper says the shapes are similar).
func (sw *Fig2SizeSweep) Anchors() []Anchor {
	if len(sw.Results) < 2 {
		return nil
	}
	worst := 0.0
	base := sw.Results[0].QueryCurve()
	for _, r := range sw.Results[1:] {
		if d := ShapeSimilarity(base, r.QueryCurve()); d > worst {
			worst = d
		}
	}
	return []Anchor{{"worst query-curve shape deviation across sizes", "%", 0, worst * 100}}
}

// ShapeSimilarity quantifies how similar two concurrency curves are:
// the maximum relative deviation of their point-wise ratios from the median
// ratio. Curves that differ only by a vertical scale factor score 0.
func ShapeSimilarity(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 1
	}
	ratios := make([]float64, 0, len(a))
	for i := range a {
		if b[i] <= 0 || a[i] <= 0 {
			return 1
		}
		ratios = append(ratios, a[i]/b[i])
	}
	// median ratio
	med := medianOf(ratios)
	worst := 0.0
	for _, r := range ratios {
		d := r/med - 1
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort: tiny inputs
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// InsertCurve extracts the per-client insert rates in client order.
func (r *Fig2Result) InsertCurve() []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.InsertOps
	}
	return out
}

// QueryCurve extracts the per-client query rates.
func (r *Fig2Result) QueryCurve() []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.QueryOps
	}
	return out
}

// Fig3SizeSweep runs the queue experiment at each message size.
type Fig3SizeSweep struct {
	Sizes   []int
	Results []*Fig3Result
}

// RunFig3Sizes executes the message-size sweep with a shared base config,
// flattening the (size, level) grid as in RunFig2Sizes.
func RunFig3Sizes(base Fig3Config, sizes []int) *Fig3SizeSweep {
	if sizes == nil {
		sizes = PaperMessageSizes()
	}
	cfgs := make([]Fig3Config, len(sizes))
	for si, s := range sizes {
		cfg := base
		cfg.MsgSize = s
		cfg.Seed = base.Seed + uint64(s)
		cfgs[si] = cfg.withDefaults()
	}
	levels := len(cfgs[0].Clients)
	pool := sched.New(base.Workers)
	pts := sched.Map(pool, len(sizes)*levels, func(i int) Fig3Point {
		cfg := cfgs[i/levels]
		return runFig3Level(cfg, cfg.Clients[i%levels])
	})
	sw := &Fig3SizeSweep{Sizes: sizes}
	for si, s := range sizes {
		sw.Results = append(sw.Results, &Fig3Result{
			MsgSize: s,
			Points:  pts[si*levels : (si+1)*levels],
		})
	}
	return sw
}

// Anchors mirrors Fig2SizeSweep.Anchors for the queue sweep.
func (sw *Fig3SizeSweep) Anchors() []Anchor {
	if len(sw.Results) < 2 {
		return nil
	}
	worst := 0.0
	base := sw.Results[0].ReceiveCurve()
	for _, r := range sw.Results[1:] {
		if d := ShapeSimilarity(base, r.ReceiveCurve()); d > worst {
			worst = d
		}
	}
	return []Anchor{{"worst receive-curve shape deviation across sizes", "%", 0, worst * 100}}
}

// AddCurve extracts the per-client Add rates.
func (r *Fig3Result) AddCurve() []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.AddOps
	}
	return out
}

// ReceiveCurve extracts the per-client Receive rates.
func (r *Fig3Result) ReceiveCurve() []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.ReceiveOps
	}
	return out
}
