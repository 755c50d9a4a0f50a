package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// decodeIngestBytesCeiling is the most bytes DecodeIngest may allocate
// for one 100-statement benchmark-shaped batch (25,691 bytes) once its
// pool holds a buffer: 31,072 bytes, what it measured, plus 5 %.
// encoding/json's Decoder, which decoded every ingest body before the
// one-pass scan, allocates 95,016 bytes for the same batch.
const decodeIngestBytesCeiling = 31_072 * 105 / 100

// allocatedPerCall is the least, over three rounds of n calls, of the
// bytes one call of fn allocated on average: a collection that empties a
// pool in one round does not count.
func allocatedPerCall(n int, fn func()) uint64 {
	fn()
	least := uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			fn()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / uint64(n); least == 0 || b < least {
			least = b
		}
	}
	return least
}

// TestDecodeIngestAllocBytes pins what decoding one 100-statement batch
// of the benchmark's shape allocates: the statements' strings and the
// slice that holds them, with the body read into a pooled buffer. The
// same batch written by json.Marshal, which escapes the statements' <
// and >, goes whole to encoding/json's Decoder and may allocate at most
// 5 % more than the Decoder alone.
func TestDecodeIngestAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	raw := benchShapedBody(100)
	var batch IngestRequest
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	escaped, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(escaped, []byte(`\u003c`)) {
		t.Fatal("json.Marshal escaped no <")
	}
	const n = 50
	w := httptest.NewRecorder()
	measure := func(body []byte) (got, stdlib uint64) {
		reqs := make([]*http.Request, 0, 8*n+2)
		for range cap(reqs) {
			reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		}
		next := func() *http.Request { r := reqs[0]; reqs = reqs[1:]; return r }
		got = allocatedPerCall(n, func() {
			if _, ok := DecodeIngest(w, next()); !ok {
				t.Fatalf("batch rejected: %s", w.Body.Bytes())
			}
		})
		stdlib = allocatedPerCall(n, func() {
			var req IngestRequest
			if err := json.NewDecoder(http.MaxBytesReader(w, next().Body, MaxBodyBytes)).Decode(&req); err != nil {
				t.Fatal(err)
			}
		})
		return got, stdlib
	}
	got, stdlib := measure(raw)
	t.Logf("a %d-byte batch: DecodeIngest allocates %d bytes (ceiling %d); encoding/json's Decoder %d", len(raw), got, decodeIngestBytesCeiling, stdlib)
	if got > decodeIngestBytesCeiling {
		t.Errorf("DecodeIngest allocates %d bytes for a %d-byte batch, ceiling %d", got, len(raw), decodeIngestBytesCeiling)
	}
	got, stdlib = measure(escaped)
	t.Logf("the batch escaped, %d bytes: DecodeIngest allocates %d bytes; encoding/json's Decoder %d", len(escaped), got, stdlib)
	if got > stdlib*105/100 {
		t.Errorf("DecodeIngest allocates %d bytes for an escaped batch, encoding/json's Decoder %d", got, stdlib)
	}
}

// TestDecodeIngestPresizeAllocs sends a few bytes under a Content-Length
// of MaxBodyBytes, and of the largest the server parses: the buffer is
// presized to ingestBufMax at most, not to what the request declares.
func TestDecodeIngestPresizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	body := []byte(`{"statements":["SELECT s_name FROM supplier"]}`)
	for _, declared := range []int64{MaxBodyBytes, math.MaxInt64} {
		r := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		r.ContentLength = declared
		w := httptest.NewRecorder()
		runtime.GC() // twice: the pool keeps its buffers for one collection more
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, ok := DecodeIngest(w, r)
		runtime.ReadMemStats(&after)
		if !ok {
			t.Fatalf("rejected: %s", w.Body.Bytes())
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("a %d-byte body declaring %d bytes allocates %d bytes", len(body), declared, got)
		if got > ingestBufMax+4<<10 {
			t.Errorf("a %d-byte body declaring %d bytes allocates %d bytes; the presize cap is %d", len(body), declared, got, ingestBufMax)
		}
	}
}

// TestPlainFindsEveryByteItMust puts each byte value in a run: plain
// must refuse exactly a backslash, a control byte and a byte above 0x7f.
func TestPlainFindsEveryByteItMust(t *testing.T) {
	for c := range 256 {
		want := c >= 0x20 && c != '\\' && c < 0x80
		if got := plain([]byte{'a', byte(c), 'b'}); got != want {
			t.Fatalf("byte %#x: plain = %v, want %v", c, got, want)
		}
	}
}

// BenchmarkDecodeIngest times one 100-statement batch through
// DecodeIngest and through encoding/json's Decoder, written raw as the
// benchmark's clients write it and by json.Marshal, which escapes the
// statements' < and > as \u003c and \u003e.
func BenchmarkDecodeIngest(b *testing.B) {
	raw := benchShapedBody(100)
	var req IngestRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		b.Fatal(err)
	}
	marshalled, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, body := range []struct {
		name string
		b    []byte
	}{{"raw", raw}, {"marshalled", marshalled}} {
		w := httptest.NewRecorder()
		b.Run(body.name+"/DecodeIngest", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, ok := DecodeIngest(w, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body.b))); !ok {
					b.Fatal(w.Body.String())
				}
			}
		})
		b.Run(body.name+"/Decoder", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				r := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body.b))
				var req IngestRequest
				if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
