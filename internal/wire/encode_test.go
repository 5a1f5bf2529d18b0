package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestAppendStringMatchesEncodingJSON: every byte class encoding/json
// treats specially is escaped as json.Marshal escapes it.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	var all []byte
	for c := 0; c < 256; c++ {
		all = append(all, byte(c))
	}
	for _, s := range []string{
		"",
		"plain ascii 0123 ~",
		`quote " and backslash \ and slash /`,
		"<script>&amp;</script>",
		"\b\f\n\r\t\x00\x01\x1f\x7f",
		"line\xe2\x80\xa8para\xe2\x80\xa9end",
		"bad \xff\xfe, cut \xc3, surrogate \xed\xa0\x80, short \xf0\x9f\x98",
		"valid multi-byte: é ü 漢 \xf0\x9f\x98\x80",
		string(all),
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendString([]byte("x"), s)
		if !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendString(%q) = %s, want %s", s, got[1:], want)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON: formats at and around the 'f'/'e'
// switch points, -0, subnormals and the extremes are json.Marshal's,
// and the values JSON cannot hold fail with its message.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 123456.789, 1.5e-3,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.234e-9, 1e-10,
		1e20, math.Nextafter(1e21, 0), 1e21, -1e21, 1.5e300,
		5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got[1:], err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %q, %v; want dst unchanged and %v", f, got, err, wantErr)
		}
	}
}

// TestBufferPoolKeepsCapacity: whatever size a buffer grew to before
// its release, GetBuffer hands out exactly the class that holds the
// capacity asked for, as ReadBody sizes its buffers.
func TestBufferPoolKeepsCapacity(t *testing.T) {
	for round := 0; round < 200; round++ {
		n := 1 + (round*7919)%(maxPresize+maxPresize/4)
		p := GetBuffer(n)
		if want := minClass << class(min(n, maxPresize)); cap(*p) != want || len(*p) != 0 {
			t.Fatalf("GetBuffer(%d): len %d cap %d, want cap %d", n, len(*p), cap(*p), want)
		}
		// Grow some buffers past their class by appending.
		*p = append(*p, make([]byte, cap(*p)+round%3)...)
		ReleaseBuffer(p)
	}
}
