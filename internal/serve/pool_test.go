package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestPoisonedReleasesKeepAnswers runs the bill, batch, inline-load and
// optimize goldens with every released body buffer filled with garbage:
// if anything a handler decodes, caches or answers still pointed into
// its body after the gate released it, a later request, or the
// comparison with the golden, would read the garbage.
func TestPoisonedReleasesKeepAnswers(t *testing.T) {
	defer wire.PoisonReleased()()
	t.Run("bill", TestBillEndpointMatchesInProcess)
	t.Run("bill-monthly", TestBillEndpointMonthly)
	t.Run("inline-loads", TestInlineLoadSources)
	t.Run("batch", TestBatchMatchesSequential)
	t.Run("batch-monthly", TestBatchMonthlyMatchesSequential)
	t.Run("batch-repeated", TestBatchRepeatedLoadsMatchSequential)
	t.Run("optimize", TestOptimizeEndpointByteStable)
}

// TestPoisonedReleasesDecodeCorpus decodes each FuzzDecodeRequest seed
// from a pooled body buffer and releases the buffer, poisoned, before
// holding the decoded value to json.Decoder's: nothing decoded may
// alias the body it came from.
func TestPoisonedReleasesDecodeCorpus(t *testing.T) {
	defer wire.PoisonReleased()()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeRequest", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus: %v", err)
	}
	for _, f := range files {
		body := corpusBytes(t, f)
		checkReleasedDecode[BillRequest](t, body)
		checkReleasedDecode[AdviseRequest](t, body)
		checkReleasedDecode[BatchRequest](t, body)
		checkReleasedDecode[OptimizeRequest](t, body)
	}
}

// checkReleasedDecode reads body into a pooled buffer as the gate does,
// decodes it, releases the buffer, and only then checks the decode.
func checkReleasedDecode[T requestType](t *testing.T, body []byte) {
	t.Helper()
	read, err := wire.ReadBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	var got T
	gotErr := decodeRequest(read.Bytes, &got)
	read.Release()
	matchDecoder(t, body, got, gotErr)
}

// corpusBytes reads the one []byte value of a fuzz corpus file.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, line, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	quoted, ok := strings.CutPrefix(line, "[]byte(")
	if !ok || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("%s: not a one-[]byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
