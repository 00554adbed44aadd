package fleet

import (
	"fmt"
	"testing"
)

// BenchmarkFleetIngest measures batched ingestion throughput across the
// shard × worker grid, the serving path's headline number (records/op is
// fixed at drives × hours, so ns/op divides straight into records/s).
func BenchmarkFleetIngest(b *testing.B) {
	const drives, hours = 256, 24
	obs := buildStream(drives, hours)
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(len(obs)), "recs/op")
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s, err := New(testModels(), hddNorms(), Config{Shards: shards, Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					res := s.IngestBatch(obs)
					if res.Ingested != len(obs) {
						b.Fatalf("ingested %d, want %d", res.Ingested, len(obs))
					}
				}
			})
		}
	}
}

// BenchmarkIngestSteady measures the steady-state batch path the server
// sits on: every drive already tracked, every hour fresh, no
// quarantines and no escalations. This is where the <1 alloc/record
// budget of the binary ingest hot path is spent. One op is one
// IngestBatch call. The 256-drive population fits in cache; the paper's
// 23,395 drives in 512-record batches do not, and there every record
// of a batch lands on a different, cache-cold drive.
func BenchmarkIngestSteady(b *testing.B) {
	for _, bc := range []struct{ drives, hours, batch int }{
		{256, 4, 1024},
		{23_395, 1, 512},
	} {
		b.Run(fmt.Sprintf("drives=%d/batch=%d", bc.drives, bc.batch), func(b *testing.B) {
			benchSteady(b, bc.drives, bc.hours, bc.batch)
		})
	}
}

// benchSteady replays passes of hours × drives records (hour-major) in
// batches of batch records. Each pass moves every hour forward by hours,
// with the timer stopped.
func benchSteady(b *testing.B, drives, hours, batch int) {
	obs := make([]Observation, 0, drives*hours)
	serials := make([]string, drives)
	for d := range serials {
		serials[d] = fmt.Sprintf("SER-%05d", d)
	}
	for h := 0; h < hours; h++ {
		for d := 0; d < drives; d++ {
			obs = append(obs, Observation{Serial: serials[d], Record: record(h, 0.9)})
		}
	}
	s, err := New(testModels(), hddNorms(), Config{Shards: 16, Workers: 8})
	if err != nil {
		b.Fatal(err)
	}
	if res := s.IngestBatch(obs); res.Ingested != len(obs) {
		b.Fatalf("warm-up ingested %d, want %d", res.Ingested, len(obs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	records := 0
	for i, lo := 0, 0; i < b.N; i, lo = i+1, lo+batch {
		if lo >= len(obs) {
			lo = 0
		}
		if lo == 0 {
			b.StopTimer()
			for j := range obs {
				obs[j].Record.Hour += hours
			}
			b.StartTimer()
		}
		res := s.IngestBatch(obs[lo:min(lo+batch, len(obs))])
		if res.Quality.RowsQuarantined != 0 {
			b.Fatalf("steady batch quarantined %d rows", res.Quality.RowsQuarantined)
		}
		records += res.Ingested
	}
	b.ReportMetric(float64(records)/float64(b.N), "recs/op")
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}
