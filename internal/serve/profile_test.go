package serve

// Named-profile sharing: resolveLoad hands every request for a built-in
// profile the series its pool holds, so that series must stay read-only
// under every endpoint that bills it, and a second resolution must not
// synthesize again.

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/hpc"
	"repro/internal/timeseries"
)

// TestSharedProfileConcurrentRequests bills one named profile through
// /v1/bill, /v1/bill/batch?monthly=1 and /v1/optimize from many
// goroutines at once. Every response must be the bytes of the same
// request sent alone, and every series the profile's pool handed out
// must still hold the samples of a fresh synthesis. Under -race it also
// reports a write to a shared series that nothing else orders against
// a concurrent read.
func TestSharedProfileConcurrentRequests(t *testing.T) {
	const (
		name   = "quickstart-month"
		rounds = 4
	)
	// A slot for each of the rounds × three requests: the admission
	// gate's semaphore would otherwise order most of them and hide a
	// race from -race.
	s := NewServer(Config{MaxConcurrent: rounds * 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := specJSON(t, quickstartSpec())
	load := LoadSpec{Profile: name}
	requests := []struct {
		path string
		body any
	}{
		{"/v1/bill", BillRequest{Contract: spec, Load: load}},
		{"/v1/bill/batch?monthly=1", BatchRequest{Contract: spec, Loads: []LoadSpec{load, load, load}}},
		{"/v1/optimize", optimizeRequest(t)},
	}
	want := make([][]byte, len(requests))
	for i, r := range requests {
		resp, body := postBill(t, ts, r.path, r.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s alone: %d %s", r.path, resp.StatusCode, body)
		}
		want[i] = body
	}

	// shared collects every series resolveLoad hands out for the
	// profile while the requests run, from whichever P each goroutine
	// is on.
	var mu sync.Mutex
	shared := map[*timeseries.PowerSeries]bool{}
	note := func() error {
		series, err := resolveLoad(load)
		if err != nil {
			return err
		}
		mu.Lock()
		shared[series] = true
		mu.Unlock()
		return nil
	}
	if err := note(); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, rounds*len(requests))
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for i, r := range requests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, body, err := post(ts, r.path, r.body)
				switch {
				case err != nil:
					errs <- err
				case resp.StatusCode != http.StatusOK || !bytes.Equal(body, want[i]):
					errs <- fmt.Errorf("%s concurrently: %d, body differs from the request alone:\n%s\nvs\n%s",
						r.path, resp.StatusCode, body, want[i])
				default:
					if err := note(); err != nil {
						errs <- err
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	fresh, err := hpc.SyntheticFacilityLoad(namedProfiles[name].cfg)
	if err != nil {
		t.Fatal(err)
	}
	for series := range shared {
		assertSameSeries(t, series, fresh)
	}
}

// TestNamedProfileResolvedOnce: once a named profile is resolved, the
// next resolution takes the pooled series and allocates nothing, let
// alone a sample slice. Under -race sync.Pool drops Puts at random, so
// the count is only meaningful without it.
func TestNamedProfileResolvedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	for name, p := range namedProfiles {
		ls := LoadSpec{Profile: name}
		var got *timeseries.PowerSeries
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			got, err = resolveLoad(ls)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: a repeated resolveLoad allocates %.1f times per call, want 0", name, allocs)
		}
		fresh, err := hpc.SyntheticFacilityLoad(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSeries(t, got, fresh)
	}
}

// assertSameSeries fails unless got has want's clock and, sample for
// sample, the same bits.
func assertSameSeries(t *testing.T, got, want *timeseries.PowerSeries) {
	t.Helper()
	if !got.Start().Equal(want.Start()) || got.Interval() != want.Interval() || got.Len() != want.Len() {
		t.Fatalf("series clock %v/%v/%d, want %v/%v/%d",
			got.Start(), got.Interval(), got.Len(), want.Start(), want.Interval(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if math.Float64bits(float64(got.At(i))) != math.Float64bits(float64(want.At(i))) {
			t.Fatalf("sample %d = %v, want %v: a shared series was written", i, got.At(i), want.At(i))
		}
	}
}
