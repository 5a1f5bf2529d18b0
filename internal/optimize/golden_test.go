package optimize_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/contract"
	"repro/internal/optimize"
	"repro/internal/survey"
)

// goldenCase is one pinned search: its result body and a hash of the
// schedule it returned, sample bits in order.
type goldenCase struct {
	Site         int             `json:"site"`
	Seed         int64           `json:"seed"`
	Candidates   int             `json:"candidates"`
	ScheduleHash string          `json:"schedule_sha256"`
	Result       json.RawMessage `json:"result"`
}

// TestOptimizeSearchGolden pins the search path itself: survey sites 1
// (TOU), 2 (powerband) and 9 (powerband + TOU) on the year-in-life load,
// search seeds 1–3, 250 and 2000 candidates. Every move's level solve
// and every TOU re-bill feeds the accept/reject chain, so a change in
// one bit of either shows up as a different body or schedule here.
// Regenerate with UPDATE_OPTIMIZE_GOLDEN=1 go test ./internal/optimize
// -run SearchGolden, only after a change that is meant to move the
// search.
func TestOptimizeSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("year-long searches")
	}
	load, err := optimize.SurveyLoad()
	if err != nil {
		t.Fatal(err)
	}
	bctx := survey.DefaultBuildContext(load.Start())
	flex := optimize.Flexibility{DeferrableFraction: 0.10, PartialFraction: 0.20}
	var cases []goldenCase
	for _, site := range survey.Records() {
		if site.ID != 1 && site.ID != 2 && site.ID != 9 {
			continue
		}
		c, err := survey.BuildContract(site, bctx)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := contract.NewEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, n := range []int{250, 2000} {
				res, err := optimize.Optimize(context.Background(), eng, load, contract.BillingInput{}, flex,
					optimize.Options{Seed: seed, Candidates: n})
				if err != nil {
					t.Fatalf("site %d seed %d candidates %d: %v", site.ID, seed, n, err)
				}
				body, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				var b [8]byte
				for _, p := range res.Series.Samples() {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(p)))
					h.Write(b[:])
				}
				cases = append(cases, goldenCase{
					Site: site.ID, Seed: seed, Candidates: n,
					ScheduleHash: hex.EncodeToString(h.Sum(nil)),
					Result:       body,
				})
			}
		}
	}
	got, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "search_golden.json")
	if os.Getenv("UPDATE_OPTIMIZE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_OPTIMIZE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("search drifted from committed golden %s", golden)
	}
}
