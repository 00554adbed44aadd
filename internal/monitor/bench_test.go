package monitor

import (
	"fmt"
	"testing"

	"disksig/internal/smart"
)

// BenchmarkMonitorScore measures IngestClass alone: the per-record
// scoring step of a fleet shard, with dense drive IDs, three group
// models (the paper's three failure groups) and steady state (every
// drive tracked, every hour fresh). One op is one record; consecutive
// records belong to consecutive drives, as in a batch that touches a
// different drive per record. 256 drives fit in cache; the paper's
// 23,395 drives do not.
func BenchmarkMonitorScore(b *testing.B) {
	models := append(testModels(), testModels()[0], testModels()[0])
	for gi := range models {
		models[gi].Group = gi + 1
	}
	for _, drives := range []int{256, 23_395} {
		b.Run(fmt.Sprintf("drives=%d", drives), func(b *testing.B) {
			m, err := NewMulti(models, hddNorms(), Config{})
			if err != nil {
				b.Fatal(err)
			}
			rec := record(0, 0.9)
			for d := 0; d < drives; d++ {
				m.IngestClass(d, smart.HDD, rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Hour = 1 + i/drives
				if _, kept := m.IngestClass(i%drives, smart.HDD, rec); !kept {
					b.Fatal("steady record not kept")
				}
			}
		})
	}
}
