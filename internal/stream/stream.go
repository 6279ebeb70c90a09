// Package stream implements the paper's §6 future-work direction:
// real-time smart meter applications — "alerts due to unusual
// consumption readings, using data stream processing technologies".
//
// A Processor consumes an unbounded stream of readings, maintains
// per-household online state, and emits alerts when a reading deviates
// from the household's learned behaviour. Two detectors are provided:
//
//   - SigmaDetector: per hour-of-day streaming mean/variance (Welford);
//     a reading more than K standard deviations from its hour's mean is
//     anomalous. Cheap and model-free.
//   - ProfileDetector: expectation = a trained PAR daily profile plus a
//     per-household thermal gradient applied to the current temperature;
//     alerts on large residuals. Catches anomalies that sigma-style
//     detectors miss in thermally driven homes.
//
// Work is partitioned across goroutines by household, like the
// benchmark's other per-consumer parallel tasks.
package stream

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/smartmeter/smartbench/internal/core"
	"github.com/smartmeter/smartbench/internal/stats"
	"github.com/smartmeter/smartbench/internal/timeseries"
)

// Event is one streamed meter reading. It is the ingestion path's
// core.Reading, not a parallel type: what the detectors observe is
// exactly what the storage engines commit, so an alert can always be
// joined back to the stored reading it fired on.
type Event = core.Reading

// Alert is an anomaly notification.
type Alert struct {
	Event Event
	// Expected is the detector's expectation for the reading.
	Expected float64
	// Score is the anomaly magnitude (detector-specific; for
	// SigmaDetector it is |x-mean|/std).
	Score float64
	// Detector names the detector that fired.
	Detector string
}

// Detector is per-household anomaly detection state. Implementations
// need not be safe for concurrent use; the Processor partitions events
// so each household's detector runs on one goroutine.
type Detector interface {
	// Name identifies the detector in alerts.
	Name() string
	// Observe consumes one event and reports whether it is anomalous.
	// Detectors should learn from normal events and may choose not to
	// learn from anomalous ones.
	Observe(e Event) (Alert, bool)
}

// NewDetector constructs a fresh detector for one household.
type NewDetector func(id timeseries.ID) Detector

// SigmaDetector flags readings far from the household's running
// per-hour-of-day mean.
type SigmaDetector struct {
	id timeseries.ID
	// K is the alert threshold in standard deviations.
	K float64
	// MinSamples is the per-hour warmup before alerting.
	MinSamples int64
	hours      [timeseries.HoursPerDay]stats.Moments
}

// NewSigmaDetector returns a NewDetector for SigmaDetectors with the
// given threshold (default 4) and warmup (default 7 samples per hour of
// day, i.e. one week).
func NewSigmaDetector(k float64, minSamples int64) NewDetector {
	if k <= 0 {
		k = 4
	}
	if minSamples <= 0 {
		minSamples = 7
	}
	return func(id timeseries.ID) Detector {
		return &SigmaDetector{id: id, K: k, MinSamples: minSamples}
	}
}

// Name implements Detector.
func (d *SigmaDetector) Name() string { return "sigma" }

// Observe implements Detector.
func (d *SigmaDetector) Observe(e Event) (Alert, bool) {
	h := ((e.Hour % timeseries.HoursPerDay) + timeseries.HoursPerDay) % timeseries.HoursPerDay
	m := &d.hours[h]
	if m.N() >= d.MinSamples {
		std := m.StdDev()
		if std > 1e-9 {
			score := math.Abs(e.Consumption-m.Mean()) / std
			if score > d.K {
				// Do not absorb the anomaly into the running statistics.
				return Alert{
					Event:    e,
					Expected: m.Mean(),
					Score:    score,
					Detector: d.Name(),
				}, true
			}
		}
	}
	m.Add(e.Consumption)
	return Alert{}, false
}

// Profile is the trained expectation model for one household used by
// ProfileDetector.
type Profile struct {
	// Daily is the 24-hour habitual load (a PAR profile).
	Daily [timeseries.HoursPerDay]float64
	// HeatingGradient and CoolingGradient are thermal sensitivities in
	// kWh per degree below/above the references (3-line output).
	HeatingGradient, CoolingGradient float64
	// HeatingRef and CoolingRef delimit the comfort band.
	HeatingRef, CoolingRef float64
	// Bias is a calibration offset added to every expectation; training
	// sets it to the mean residual so the daily profile and thermal
	// terms need not be perfectly disjoint.
	Bias float64
	// Tolerance is the absolute residual above which a reading alerts.
	Tolerance float64
}

// Expected returns the model's expectation for an hour of day and
// temperature.
func (p *Profile) Expected(hourOfDay int, temperature float64) float64 {
	v := p.Daily[hourOfDay] + p.Bias +
		p.HeatingGradient*math.Max(0, p.HeatingRef-temperature) +
		p.CoolingGradient*math.Max(0, temperature-p.CoolingRef)
	if v < 0 {
		v = 0
	}
	return v
}

// ProfileDetector alerts when readings deviate from a trained profile.
type ProfileDetector struct {
	id      timeseries.ID
	profile Profile
}

// NewProfileDetector returns a NewDetector that looks up each
// household's trained profile; households without a profile never alert.
func NewProfileDetector(profiles map[timeseries.ID]Profile) NewDetector {
	return func(id timeseries.ID) Detector {
		p, ok := profiles[id]
		if !ok {
			return &ProfileDetector{id: id, profile: Profile{Tolerance: math.Inf(1)}}
		}
		if p.Tolerance <= 0 {
			p.Tolerance = 1
		}
		return &ProfileDetector{id: id, profile: p}
	}
}

// Name implements Detector.
func (d *ProfileDetector) Name() string { return "profile" }

// Observe implements Detector.
func (d *ProfileDetector) Observe(e Event) (Alert, bool) {
	h := ((e.Hour % timeseries.HoursPerDay) + timeseries.HoursPerDay) % timeseries.HoursPerDay
	want := d.profile.Expected(h, e.Temperature)
	resid := math.Abs(e.Consumption - want)
	if resid > d.profile.Tolerance {
		return Alert{
			Event:    e,
			Expected: want,
			Score:    resid / d.profile.Tolerance,
			Detector: d.Name(),
		}, true
	}
	return Alert{}, false
}

// Processor runs detectors over an event stream.
type Processor struct {
	newDetector NewDetector
	workers     int

	mu        sync.Mutex
	processed int64
	alerted   int64
}

// ErrNoDetector is returned when the processor has no detector factory.
var ErrNoDetector = errors.New("stream: no detector factory")

// NewProcessor builds a processor with the given detector factory and
// worker count (0 means 4).
func NewProcessor(nd NewDetector, workers int) (*Processor, error) {
	if nd == nil {
		return nil, ErrNoDetector
	}
	if workers <= 0 {
		workers = 4
	}
	return &Processor{newDetector: nd, workers: workers}, nil
}

// Stats returns the number of events processed and alerts raised.
func (p *Processor) Stats() (processed, alerted int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.processed, p.alerted
}

// Run consumes events until the channel closes, sending alerts to out.
// Events are partitioned by household across the processor's workers so
// per-household state stays single-threaded; within a household, order
// is preserved. Run closes out when done.
func (p *Processor) Run(events <-chan Event, out chan<- Alert) error {
	defer close(out)
	chans := make([]chan Event, p.workers)
	var wg sync.WaitGroup
	for w := range chans {
		chans[w] = make(chan Event, 256)
		wg.Add(1)
		go func(in <-chan Event) {
			defer wg.Done()
			detectors := make(map[timeseries.ID]Detector)
			var processed, alerted int64
			for e := range in {
				d, ok := detectors[e.ID]
				if !ok {
					d = p.newDetector(e.ID)
					detectors[e.ID] = d
				}
				processed++
				if alert, bad := d.Observe(e); bad {
					alerted++
					out <- alert
				}
			}
			p.mu.Lock()
			p.processed += processed
			p.alerted += alerted
			p.mu.Unlock()
		}(chans[w])
	}
	for e := range events {
		if e.ID < 0 {
			// Drain workers before reporting, so state is consistent.
			for _, c := range chans {
				close(c)
			}
			wg.Wait()
			return fmt.Errorf("stream: negative household id %d", e.ID)
		}
		chans[core.ShardFor(e.ID, p.workers)] <- e
	}
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	return nil
}

// Replay streams a dataset's readings hour by hour (all households'
// readings for hour 0, then hour 1, ...) into a channel, the shape a
// live meter feed would have. It closes the channel when done.
func Replay(ds *timeseries.Dataset, out chan<- Event) {
	defer close(out)
	if len(ds.Series) == 0 {
		return
	}
	hours := len(ds.Temperature.Values)
	for h := 0; h < hours; h++ {
		for _, s := range ds.Series {
			if h >= len(s.Readings) {
				continue
			}
			out <- Event{
				ID:          s.ID,
				Hour:        h,
				Consumption: s.Readings[h],
				Temperature: ds.Temperature.Values[h],
			}
		}
	}
}
