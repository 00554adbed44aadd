package server

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strconv"
	"testing"

	"bytes"
	"encoding/json"
	"net/http"

	"disksig/internal/fleet"
	"disksig/internal/smart"
	"disksig/internal/wire"
)

// nullResponseWriter swallows responses so the benchmarks measure the
// server, not httptest.ResponseRecorder's buffer growth.
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 4)
	}
	return w.h
}
func (w *nullResponseWriter) WriteHeader(int)             {}
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// benchObs builds one steady-state batch: every drive reports the same
// healthy score at the same hour.
func benchObs(drives, hour int) []fleet.Observation {
	obs := make([]fleet.Observation, drives)
	for d := range obs {
		var v smart.Values
		v[smart.RRER] = 0.9
		obs[d] = fleet.Observation{
			Serial: fmt.Sprintf("SER-%04d", d),
			Record: smart.Record{Hour: hour, Values: v},
		}
	}
	return obs
}

// reusableBody is a resettable request body so the benchmark loop does
// not allocate a fresh reader per request.
type reusableBody struct{ bytes.Reader }

func (reusableBody) Close() error { return nil }

// serveBatch drives one POST /v1/ingest through the full handler chain.
func serveBatch(h http.Handler, req *http.Request, body *reusableBody, frame []byte, w *nullResponseWriter) {
	body.Reset(frame)
	req.Body = body
	h.ServeHTTP(w, req)
}

// BenchmarkIngestBinary measures the binary ingest hot path end to end
// (handler chain, wire decode, fleet scoring, ack encoding) in
// steady state: all drives known, hours advancing. The acceptance budget
// is < 1 alloc per record. Frames are encoded outside the timer: the
// loop serves a ring of pre-encoded frames, and moves their hours past
// the ring's end, by re-encoding, only while the timer is stopped.
func BenchmarkIngestBinary(b *testing.B) {
	const drives, ring = 512, 64
	srv := testServer(b, fleet.Config{Shards: 16, Workers: 8}, Config{})
	h := srv.Handler()
	obs := benchObs(drives, 0)
	frames := make([][]byte, ring)
	// encode fills the ring with the hours after base.
	encode := func(base int) {
		for k := range frames {
			for j := range obs {
				obs[j].Record.Hour = base + k + 1
			}
			var err error
			if frames[k], err = wire.AppendBatch(frames[k][:0], obs); err != nil {
				b.Fatal(err)
			}
		}
	}

	req := httptest.NewRequest("POST", "/v1/ingest", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	var body reusableBody
	w := &nullResponseWriter{}
	serveBatch(h, req, &body, wire.EncodeBatch(obs), w) // warm-up: creates all drive state
	encode(0)

	b.SetBytes(int64(len(frames[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%ring == 0 {
			b.StopTimer()
			encode(i)
			b.StartTimer()
		}
		serveBatch(h, req, &body, frames[i%ring], w)
	}
	b.ReportMetric(float64(b.N*drives)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkIngestJSON is the same workload through the JSON path, the
// baseline the binary format is judged against. The request body is
// patched in place (fixed-width hour digits), so client-side encoding
// does not pollute the server-side allocation count.
func BenchmarkIngestJSON(b *testing.B) {
	const drives = 512
	const hourBase = 1000000 // 7 digits, never a leading zero
	srv := testServer(b, fleet.Config{Shards: 16, Workers: 8}, Config{})
	h := srv.Handler()

	type rec struct {
		Serial string     `json:"serial"`
		Hour   int        `json:"hour"`
		Values []*float64 `json:"values"`
	}
	rs := make([]rec, drives)
	for d := range rs {
		vals := make([]*float64, int(smart.NumAttrs))
		for a := range vals {
			z := 0.0
			vals[a] = &z
		}
		score := 0.9
		vals[smart.RRER] = &score
		rs[d] = rec{Serial: fmt.Sprintf("SER-%04d", d), Hour: hourBase, Values: vals}
	}
	frame, err := json.Marshal(map[string]any{"records": rs})
	if err != nil {
		b.Fatal(err)
	}
	// Locate every fixed-width hour so iterations can renumber in place.
	marker := []byte(`"hour":` + strconv.Itoa(hourBase))
	var hourOffs []int
	for off := 0; ; {
		i := bytes.Index(frame[off:], marker)
		if i < 0 {
			break
		}
		hourOffs = append(hourOffs, off+i+len(`"hour":`))
		off += i + len(marker)
	}
	if len(hourOffs) != drives {
		b.Fatalf("found %d hour fields, want %d", len(hourOffs), drives)
	}

	req := httptest.NewRequest("POST", "/v1/ingest", nil)
	req.Header.Set("Content-Type", "application/json")
	var body reusableBody
	w := &nullResponseWriter{}
	serveBatch(h, req, &body, frame, w) // warm-up

	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	var digits [8]byte
	for i := 0; i < b.N; i++ {
		hs := strconv.AppendInt(digits[:0], int64(hourBase+i+1), 10)
		if len(hs) != 7 {
			b.Fatalf("hour %d is not 7 digits", hourBase+i+1)
		}
		for _, off := range hourOffs {
			copy(frame[off:], hs)
		}
		serveBatch(h, req, &body, frame, w)
	}
	b.ReportMetric(float64(b.N*drives)/b.Elapsed().Seconds(), "records/s")
}

var _ io.ReadCloser = (*reusableBody)(nil)
