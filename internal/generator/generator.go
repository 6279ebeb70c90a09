// Package generator implements the paper's data generator (§4): it
// creates arbitrarily many realistic smart-meter series from a small seed
// of data.
//
// Pre-processing disaggregates every seed consumer:
//
//   - the PAR algorithm extracts each consumer's daily activity profile;
//   - k-means groups the profiles into clusters of similar daily habits;
//   - the 3-line algorithm records each consumer's heating and cooling
//     gradients.
//
// A new consumer is then re-aggregated from independently drawn pieces:
// a randomly chosen cluster's centroid supplies the hourly activity load,
// a randomly chosen member of that cluster supplies the thermal
// gradients, and Gaussian white noise is added:
//
//	reading(h) = activity(hour of day) +
//	             heatingGradient * max(0, Tref - T(h)) +
//	             coolingGradient * max(0, T(h) - Tref') +
//	             N(0, sigma)
//
// clamped at zero (consumption cannot be negative).
package generator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/smartmeter/smartbench/internal/kmeans"
	"github.com/smartmeter/smartbench/internal/par"
	"github.com/smartmeter/smartbench/internal/threeline"
	"github.com/smartmeter/smartbench/internal/timeseries"

	"github.com/smartmeter/smartbench/internal/stats"
)

// Config controls generation.
type Config struct {
	// Clusters is k for the k-means step. Default 8 (clamped to the seed
	// size).
	Clusters int
	// NoiseStdDev is sigma of the white-noise component in kWh.
	// Default 0.1.
	NoiseStdDev float64
	// HeatingRef and CoolingRef are the temperature thresholds below /
	// above which thermal load accrues. Defaults 16 and 22 C.
	HeatingRef, CoolingRef float64
	// Seed seeds the deterministic PRNG used for consumer synthesis.
	Seed int64
	// FlatRate is the probability in [0, 1] that a synthesized consumer
	// is a flat load: a bit-constant series at its cluster's mean
	// hourly level, no thermal response, no noise — the unoccupied or
	// flat-tariff baseline households real feeds carry. Default 0, and
	// a zero rate draws nothing from the PRNG, so existing seeds
	// reproduce their exact historical series.
	FlatRate float64
}

// DefaultConfig returns the default generation parameters.
func DefaultConfig() Config {
	return Config{Clusters: 8, NoiseStdDev: 0.1, HeatingRef: 16, CoolingRef: 22}
}

// profileKind captures the disaggregated pieces of one seed consumer.
type gradients struct {
	heating, cooling float64
}

// Generator is a prepared data generator: the seed has been
// disaggregated and can be re-aggregated into any number of synthetic
// consumers.
type Generator struct {
	cfg       Config
	clusters  *kmeans.Result
	gradients []gradients // indexed like the seed's series
	members   [][]int     // cluster -> indexes of member consumers
	rng       *rand.Rand
	nextID    timeseries.ID
}

// ErrSeedTooSmall is returned when the seed has fewer than 2 consumers.
var ErrSeedTooSmall = errors.New("generator: seed dataset too small")

// New disaggregates the seed dataset (PAR profiles, k-means clusters,
// 3-line gradients) and returns a ready Generator.
func New(seedData *timeseries.Dataset, cfg Config) (*Generator, error) {
	if len(seedData.Series) < 2 {
		return nil, ErrSeedTooSmall
	}
	if cfg.Clusters <= 0 {
		cfg.Clusters = DefaultConfig().Clusters
	}
	if cfg.Clusters > len(seedData.Series) {
		cfg.Clusters = len(seedData.Series)
	}
	if cfg.NoiseStdDev < 0 {
		return nil, fmt.Errorf("generator: negative noise sigma %g", cfg.NoiseStdDev)
	}
	if stats.IsZero(cfg.NoiseStdDev) {
		cfg.NoiseStdDev = DefaultConfig().NoiseStdDev
	}
	if stats.IsZero(cfg.HeatingRef) && stats.IsZero(cfg.CoolingRef) {
		cfg.HeatingRef = DefaultConfig().HeatingRef
		cfg.CoolingRef = DefaultConfig().CoolingRef
	}
	if cfg.CoolingRef < cfg.HeatingRef {
		return nil, fmt.Errorf("generator: cooling ref %g below heating ref %g",
			cfg.CoolingRef, cfg.HeatingRef)
	}
	if cfg.FlatRate < 0 || cfg.FlatRate > 1 {
		return nil, fmt.Errorf("generator: flat rate %g outside [0, 1]", cfg.FlatRate)
	}

	// Step 1: PAR daily profiles for every seed consumer.
	profiles := make([][]float64, len(seedData.Series))
	parPlan := par.NewPlan(seedData.Temperature, par.DefaultOrder)
	var parScratch par.Scratch
	for i, s := range seedData.Series {
		r, err := parPlan.Compute(s, &parScratch)
		if err != nil {
			return nil, fmt.Errorf("generator: PAR on seed consumer %d: %w", s.ID, err)
		}
		p := make([]float64, timeseries.HoursPerDay)
		copy(p, r.Profile[:])
		profiles[i] = p
	}

	// Step 2: cluster the profiles.
	cl, err := kmeans.Run(profiles, kmeans.Config{K: cfg.Clusters, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("generator: clustering profiles: %w", err)
	}

	// Step 3: 3-line gradients for every seed consumer.
	grads := make([]gradients, len(seedData.Series))
	plan := threeline.NewPlan(seedData.Temperature, threeline.DefaultConfig())
	var sc threeline.Scratch
	for i, s := range seedData.Series {
		r, _, err := plan.Compute(s, &sc)
		if err != nil {
			return nil, fmt.Errorf("generator: 3-line on seed consumer %d: %w", s.ID, err)
		}
		grads[i] = gradients{
			heating: math.Max(0, r.HeatingGradient),
			cooling: math.Max(0, r.CoolingGradient),
		}
	}

	members := make([][]int, cfg.Clusters)
	for i, c := range cl.Assign {
		members[c] = append(members[c], i)
	}

	return &Generator{
		cfg:       cfg,
		clusters:  cl,
		gradients: grads,
		members:   members,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nextID:    1,
	}, nil
}

// Clusters exposes the activity-profile clustering (for inspection and
// the segmentation example).
func (g *Generator) Clusters() *kmeans.Result { return g.clusters }

// NextSeries synthesizes one new consumer against the given temperature
// series, assigning sequential IDs starting at 1.
func (g *Generator) NextSeries(temp *timeseries.Temperature) (*timeseries.Series, error) {
	id := g.nextID
	g.nextID++
	return g.Series(id, temp)
}

// Series synthesizes one new consumer with an explicit ID.
func (g *Generator) Series(id timeseries.ID, temp *timeseries.Temperature) (*timeseries.Series, error) {
	readings := make([]float64, len(temp.Values))
	if err := g.SeriesInto(readings, temp); err != nil {
		return nil, err
	}
	return &timeseries.Series{ID: id, Readings: readings}, nil
}

// SeriesInto synthesizes one new consumer's readings directly into dst,
// which must be exactly len(temp.Values) long. It is the streaming
// variant of Series: callers generating millions of consumers reuse one
// buffer and hand each filled row to a streaming sink (the column
// store's SegmentWriter, a CSV encoder) instead of materializing the
// whole matrix. The PRNG consumption per consumer is identical to
// Series, so a streamed run and a materialized run with the same seed
// produce the same readings.
func (g *Generator) SeriesInto(dst []float64, temp *timeseries.Temperature) error {
	if len(temp.Values) == 0 || len(temp.Values)%timeseries.HoursPerDay != 0 {
		return fmt.Errorf("generator: temperature series of %d values: %w",
			len(temp.Values), timeseries.ErrBadLength)
	}
	if len(dst) != len(temp.Values) {
		return fmt.Errorf("generator: dst of %d values for %d temperatures: %w",
			len(dst), len(temp.Values), timeseries.ErrBadLength)
	}
	// Select a random activity-profile cluster, then a random member of
	// that cluster for the thermal gradients (paper Figure 3).
	c := g.rng.Intn(len(g.members))
	for len(g.members[c]) == 0 { // skip empty clusters (possible after re-seeding)
		c = g.rng.Intn(len(g.members))
	}
	centroid := g.clusters.Centroids[c]
	// Flat consumers carry their cluster's mean hourly level in every
	// slot: bit-constant, no thermal or noise terms. The extra PRNG
	// draw happens only when FlatRate is set, so a zero rate consumes
	// the stream exactly as before.
	if g.cfg.FlatRate > 0 && g.rng.Float64() < g.cfg.FlatRate {
		level := 0.0
		for _, v := range centroid {
			level += v
		}
		level /= float64(len(centroid))
		if level < 0 {
			level = 0
		}
		for i := range dst {
			dst[i] = level
		}
		return nil
	}
	member := g.members[c][g.rng.Intn(len(g.members[c]))]
	grad := g.gradients[member]

	for i := range dst {
		hour := i % timeseries.HoursPerDay
		t := temp.Values[i]
		v := centroid[hour] +
			grad.heating*math.Max(0, g.cfg.HeatingRef-t) +
			grad.cooling*math.Max(0, t-g.cfg.CoolingRef) +
			g.rng.NormFloat64()*g.cfg.NoiseStdDev
		if v < 0 {
			v = 0
		}
		dst[i] = v
	}
	return nil
}

// Dataset synthesizes n new consumers sharing the given temperature
// series, with IDs 1..n.
func (g *Generator) Dataset(n int, temp *timeseries.Temperature) (*timeseries.Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("generator: n must be positive, got %d", n)
	}
	series := make([]*timeseries.Series, n)
	for i := range series {
		s, err := g.Series(timeseries.ID(i+1), temp)
		if err != nil {
			return nil, err
		}
		series[i] = s
	}
	return &timeseries.Dataset{Series: series, Temperature: temp}, nil
}
