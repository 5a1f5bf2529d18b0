package main

// The fleet under test: route.NewRouter in front of two serve.NewServer
// backends, each on its own loopback listener, configured as cmd/scroute
// and cmd/scserved configure them by default, hedging included. Request
// logging is off: it is a deployment choice, and a log line per request
// would measure the terminal.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/route"
	"repro/internal/serve"
)

const (
	fleetBackends = 2
	// requestTimeout bounds one benchmark request, so that a stuck
	// request fails the run instead of hanging it.
	requestTimeout = 30 * time.Second
)

type fleet struct {
	backends []*serve.Server
	urls     []string
	router   *route.Router
	url      string

	servers  []*http.Server
	serving  sync.WaitGroup
	stopPoll context.CancelFunc
	forward  *http.Transport
	// client is the benchmark's own client: at most conns connections
	// to each host.
	client *http.Client
}

func startFleet(conns int) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < fleetBackends; i++ {
		// The zero Config is scserved's default configuration.
		s := serve.NewServer(serve.Config{})
		url, err := f.listen(s.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, s)
		f.urls = append(f.urls, url)
	}
	// scroute's transport and flag defaults; the remaining fields'
	// zero values are the library defaults scroute's flags repeat.
	f.forward = &http.Transport{MaxIdleConns: 1024, MaxIdleConnsPerHost: 512}
	rt, err := route.NewRouter(route.Config{
		Backends:         f.urls,
		Client:           &http.Client{Transport: f.forward},
		FailureThreshold: 3,
		OpenTimeout:      5 * time.Second,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	ctx, cancel := context.WithCancel(context.Background())
	f.stopPoll = cancel
	rt.Start(ctx)
	if f.url, err = f.listen(rt.Handler()); err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router first, then the backends, and returns once
// every listener goroutine has exited.
func (f *fleet) close() {
	if f.stopPoll != nil {
		f.stopPoll()
	}
	// Close the clients' idle connections first: Shutdown counts a
	// connection that was dialed but never sent a request as busy for
	// its first five seconds.
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.forward != nil {
		f.forward.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Shutdown(ctx) // a timeout here leaves only idle goroutines behind
	}
	if f.router != nil {
		f.router.Wait()
	}
	for _, s := range f.backends {
		_ = s.Shutdown(ctx)
	}
	f.serving.Wait()
}

// settle waits, for up to five seconds, until no request is in flight
// in the fleet: a hedge the router gave up on can still be running on a
// backend after the last reply reached the client.
func (f *fleet) settle() {
	f.router.Wait()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		busy := 0
		for _, s := range f.backends {
			busy += s.Inflight()
		}
		if busy == 0 {
			return
		}
	}
}

// post sends one request and reads the whole response.
func (f *fleet) post(url string, body []byte) (int, []byte, error) {
	resp, err := f.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads the router's and every backend's /metrics and sums each
// series over them, keyed by `name{labels}`.
func (f *fleet) scrape() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, base := range append([]string{f.url}, f.urls...) {
		resp, err := f.client.Get(base + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if line == "" || line[0] == '#' || i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", base, err)
		}
	}
	return out, nil
}

// scraped derives the counter metrics from a scrape.
func scraped(m map[string]float64) map[string]float64 {
	sum := func(prefix string) float64 {
		var t float64
		for k, v := range m {
			if strings.HasPrefix(k, prefix) {
				t += v
			}
		}
		return t
	}
	hits, misses := m["scserved_engine_cache_hits_total"], m["scserved_engine_cache_misses_total"]
	return map[string]float64{
		"route.attempts_per_request":   ratio(sum("scroute_backend_requests_total{"), sum("scroute_requests_total{")),
		"route.hedges":                 m["scroute_hedges_total"],
		"route.hedge_win_ratio":        ratio(m["scroute_hedge_wins_total"], m["scroute_hedges_total"]),
		"serve.cache_hit_ratio":        ratio(hits, hits+misses),
		"serve.admission_wait_mean_ms": 1e3 * ratio(m[`scserved_stage_seconds_sum{stage="admission_wait"}`], m[`scserved_stage_seconds_count{stage="admission_wait"}`]),
		"serve.shed_ratio":             ratio(m["scserved_shed_total"], sum(`scserved_requests_total{path="/v1/`)),
	}
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
