// Package feed abstracts where market prices come from. The paper's
// dynamic-tariff sites bill against "real-time communication between
// the consumer and the provider" — in practice a day-ahead or
// real-time price feed, which is exactly the kind of flaky external
// dependency the billing service must survive. A PriceProvider is any
// source of a price series (an in-memory constant, a file a scheduler
// drops hourly, an HTTP endpoint at the utility); the Cached wrapper
// in cache.go adds the resilience layer: TTL caching, stale service
// within a staleness budget, background refresh behind a circuit
// breaker, and an explicit degraded verdict once the budget is blown.
package feed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/timeseries"
	"repro/internal/units"
)

// PriceProvider supplies market prices. Fetch returns a price series
// intended to cover [start, end); providers backed by an external
// source (file, HTTP) return whatever the source currently holds, and
// the caller decides whether the coverage is acceptable. Fetch must
// honor ctx and must return series that pass Validate.
type PriceProvider interface {
	Fetch(ctx context.Context, start, end time.Time) (*timeseries.PriceSeries, error)
	// Describe returns a one-line human-readable description of the
	// source, for logs and error messages.
	Describe() string
}

// Validate rejects price series no biller should ever see: empty
// series and non-finite samples. Parsers reject these with positional
// errors already; Validate is the defense at the provider boundary,
// where a misbehaving upstream (or the chaos injector) can hand back
// garbage that parsed fine structurally.
func Validate(s *timeseries.PriceSeries) error {
	if s == nil || s.Len() == 0 {
		return errors.New("feed: provider returned an empty price series")
	}
	for i := 0; i < s.Len(); i++ {
		if !isFinite(float64(s.At(i))) {
			return fmt.Errorf("feed: price sample %d (%s) is not finite",
				i, s.TimeAt(i).Format(time.RFC3339))
		}
	}
	return nil
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Static serves a fixed in-memory series — the provider form of "the
// operator handed us this year's prices up front".
type Static struct {
	Series *timeseries.PriceSeries
}

// NewStatic wraps a series as a provider.
func NewStatic(s *timeseries.PriceSeries) *Static { return &Static{Series: s} }

// Fetch returns the wrapped series regardless of window (PriceAt
// clamps at the edges downstream).
func (p *Static) Fetch(_ context.Context, _, _ time.Time) (*timeseries.PriceSeries, error) {
	if err := Validate(p.Series); err != nil {
		return nil, err
	}
	return p.Series, nil
}

// Describe returns a one-line description.
func (p *Static) Describe() string {
	if p.Series == nil {
		return "static feed (empty)"
	}
	return fmt.Sprintf("static feed (%d samples from %s)",
		p.Series.Len(), p.Series.Start().Format(time.RFC3339))
}

// Flat synthesizes a constant price covering any requested window —
// the resilient-stack equivalent of the flat reference feed the CLIs
// use when no market data is supplied.
type Flat struct {
	Rate units.EnergyPrice
}

// Fetch returns a constant hourly series covering [start, end).
func (p *Flat) Fetch(_ context.Context, start, end time.Time) (*timeseries.PriceSeries, error) {
	if !end.After(start) {
		return nil, fmt.Errorf("feed: flat window [%s, %s) is empty", start, end)
	}
	n := int(end.Sub(start)/time.Hour) + 1
	return timeseries.ConstantPrice(start, time.Hour, n, p.Rate), nil
}

// Describe returns a one-line description.
func (p *Flat) Describe() string {
	return fmt.Sprintf("flat feed @ %g/kWh", float64(p.Rate))
}

// File reads prices from a CSV ("timestamp,price_per_kwh") or JSON
// file on every Fetch, so an external process can refresh the file in
// place. The format is chosen by extension: .json selects JSON,
// anything else CSV.
type File struct {
	Path string
}

// Fetch re-reads and parses the file.
func (p *File) Fetch(_ context.Context, _, _ time.Time) (*timeseries.PriceSeries, error) {
	f, err := os.Open(p.Path)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	defer f.Close()
	s, err := parseByFormat(f, strings.EqualFold(filepath.Ext(p.Path), ".json"))
	if err != nil {
		return nil, fmt.Errorf("feed: %s: %w", p.Path, err)
	}
	return s, nil
}

// Describe returns a one-line description.
func (p *File) Describe() string { return fmt.Sprintf("file feed %s", p.Path) }

// maxFeedBody bounds an HTTP feed response (a year of hourly prices in
// CSV is well under 1 MB).
const maxFeedBody = 8 << 20

// HTTP fetches prices from a URL — the day-ahead/real-time market
// endpoint shape. The response body is CSV unless the Content-Type
// says JSON.
type HTTP struct {
	URL string
	// Client is the HTTP client; nil selects one with a 10 s timeout.
	Client *http.Client
}

func (p *HTTP) client() *http.Client {
	if p.Client != nil {
		return p.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// Fetch GETs the URL with the caller's context and parses the body.
func (p *HTTP) Fetch(ctx context.Context, _, _ time.Time) (*timeseries.PriceSeries, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL, nil)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	resp, err := p.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain a little so the connection can be reused, then reject.
		_, _ = io.CopyN(io.Discard, resp.Body, 512)
		return nil, fmt.Errorf("feed: %s returned %s", p.URL, resp.Status)
	}
	isJSON := strings.Contains(resp.Header.Get("Content-Type"), "json")
	s, err := parseByFormat(io.LimitReader(resp.Body, maxFeedBody), isJSON)
	if err != nil {
		return nil, fmt.Errorf("feed: %s: %w", p.URL, err)
	}
	return s, nil
}

// Describe returns a one-line description.
func (p *HTTP) Describe() string { return fmt.Sprintf("http feed %s", p.URL) }

func parseByFormat(r io.Reader, isJSON bool) (*timeseries.PriceSeries, error) {
	if isJSON {
		return ParseJSON(r)
	}
	return ParseCSV(r)
}

var (
	_ PriceProvider = (*Static)(nil)
	_ PriceProvider = (*Flat)(nil)
	_ PriceProvider = (*File)(nil)
	_ PriceProvider = (*HTTP)(nil)
)
