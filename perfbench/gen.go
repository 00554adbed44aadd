package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime/debug"

	"disksig/internal/fleet"
	"disksig/internal/loadgen"
	"disksig/internal/parallel"
	"disksig/internal/smart"
	"disksig/internal/synth"
	"disksig/internal/wire"
)

// Every hour on the wire is hourBase + pass*passSpan + the synth hour.
// The base keeps JSON hours at a fixed seven digits, so a later pass is
// the first pass's bodies with the digits rewritten in place; the span
// exceeds every synth profile, so each pass continues each drive's
// telemetry after its last hour and the drive population stays fixed.
const (
	hourBase  = 1_000_000
	hourWidth = 7
	passSpan  = 1000
)

// fleetSeedOffset holds the replayed fleet out from the seed-1 fleet
// every diskserve trains on.
const fleetSeedOffset = 3000

// Fault rates: the default 2 % garble/duplicate/reorder mix of the
// repository's load generator, so the quarantine paths run.
const garbleRate, duplicateRate, reorderRate = 0.02, 0.02, 0.02

// drive is one drive's post-fault record sequence.
type drive struct {
	serial string
	failed bool
	recs   []smart.Record
}

// ref names one record of the fleet: drive index and record index.
type ref struct{ d, r int32 }

// inputs is a workload's traffic, built once per (workload, seed)
// before any timer starts: per-stream batches of records and their
// first-pass request bodies. Between buildInputs and loadRecords the
// drives carry serials but no records.
type inputs struct {
	scale   synth.Scale
	seed    int64
	drives  []drive
	format  string
	batches [][][]ref  // [stream][batch] -> records
	bodies  [][][]byte // [stream][batch] -> first-pass body
	hourOff [][][]int  // JSON only: [stream][batch] -> offsets of hour digits
	growth  []int      // per stream: batches that introduce a new drive
	records int        // records in one pass over every stream
}

// fleetDrives generates the held-out synth fleet (seed+3000) and
// applies the fault mix. It mirrors loadgen.BuildWorkload, but seeds
// one fault stream per drive instead of one per record: the per-record
// seeding costs about a minute at paper scale, more than a benchmark
// run may spend on set-up.
func fleetDrives(scale synth.Scale, seed int64) ([]drive, error) {
	cfg := synth.DefaultConfig(scale)
	cfg.Seed = seed + fleetSeedOffset
	ds, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating fleet: %w", err)
	}
	var drives []drive
	add := func(p *smart.Profile, kind string) {
		rng := rand.New(rand.NewSource(parallel.DeriveSeed(cfg.Seed, int64(p.DriveID))))
		drives = append(drives, drive{
			serial: fmt.Sprintf("pb-%s-%05d", kind, p.DriveID),
			failed: p.Failed,
			recs:   corrupt(p.Records, rng),
		})
		p.Records = nil // release the clean copy as we go
	}
	for _, p := range ds.Failed {
		add(p, "failed")
	}
	for _, p := range ds.Good {
		add(p, "good")
	}
	for _, d := range drives {
		if n := len(d.recs); n > 0 && d.recs[n-1].Hour >= passSpan {
			return nil, fmt.Errorf("drive %s reaches hour %d, beyond the %d-hour pass span", d.serial, d.recs[n-1].Hour, passSpan)
		}
	}
	return drives, nil
}

// buildInputs builds the fleet and cuts it into per-stream batches in
// the order loadgen.Workload.Split uses: drives dealt round-robin to
// streams, each stream interleaving its drives' records step by step.
// The records are dropped once the bodies exist; loadRecords brings
// them back for the shadow, so a paper-scale run does not hold both
// through the window.
func buildInputs(scale synth.Scale, seed int64, streams, batchSize int, format string) (*inputs, error) {
	drives, err := fleetDrives(scale, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{scale: scale, seed: seed, format: format, drives: drives}
	in.batches = make([][][]ref, streams)
	in.bodies = make([][][]byte, streams)
	in.hourOff = make([][][]int, streams)
	in.growth = make([]int, streams)
	parallel.ForEach(streams, streams, func(s int) {
		var mine []int32
		for d := s; d < len(in.drives); d += streams {
			mine = append(mine, int32(d))
		}
		var stream []ref
		for step := int32(0); ; step++ {
			any := false
			for _, d := range mine {
				if int(step) < len(in.drives[d].recs) {
					stream = append(stream, ref{d, step})
					any = true
				}
			}
			if !any {
				break
			}
		}
		// Step 0 holds every drive of the stream, so its batches are the
		// ones that grow the population.
		in.growth[s] = (len(mine) + batchSize - 1) / batchSize
		obs := make([]fleet.Observation, 0, batchSize)
		for lo := 0; lo < len(stream); lo += batchSize {
			b := stream[lo:min(lo+batchSize, len(stream))]
			in.batches[s] = append(in.batches[s], b)
			obs = in.observations(obs[:0], b, 0)
			if format == "json" {
				body := loadgen.EncodeBatch(obs)
				in.bodies[s] = append(in.bodies[s], body)
				in.hourOff[s] = append(in.hourOff[s], jsonHourOffsets(body))
			} else {
				in.bodies[s] = append(in.bodies[s], wire.EncodeBatch(obs))
			}
		}
	})
	for _, b := range in.batches {
		for _, rs := range b {
			in.records += len(rs)
		}
	}
	for i := range in.drives {
		in.drives[i].recs = nil
	}
	debug.FreeOSMemory()
	return in, nil
}

// loadRecords regenerates the fleet's records (the same seed gives the
// same records) and releases the request bodies.
func (in *inputs) loadRecords() error {
	in.bodies, in.hourOff = nil, nil
	debug.FreeOSMemory() // collect the bodies before the records arrive
	drives, err := fleetDrives(in.scale, in.seed)
	if err != nil {
		return err
	}
	in.drives = drives
	debug.FreeOSMemory()
	return nil
}

// corrupt applies the fault mix to one drive's records, with the
// decision order of faultinject.CorruptRecords, and maps infinities to
// NaN the way the wire formats do (JSON null, an absent binary triple).
func corrupt(recs []smart.Record, rng *rand.Rand) []smart.Record {
	out := make([]smart.Record, 0, len(recs)+len(recs)/25)
	var held *smart.Record
	for _, r := range recs {
		switch {
		case rng.Float64() < garbleRate:
			bad := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1}
			r.Values[rng.Intn(int(smart.NumAttrs))] = bad[rng.Intn(len(bad))]
			out = append(out, r)
		case rng.Float64() < duplicateRate:
			out = append(out, r, r)
		case rng.Float64() < reorderRate && held == nil:
			h := r
			held = &h
			continue
		default:
			out = append(out, r)
		}
		if held != nil {
			out = append(out, *held)
			held = nil
		}
	}
	if held != nil {
		out = append(out, *held)
	}
	for i := range out {
		for a, v := range out[i].Values {
			if math.IsInf(v, 0) {
				out[i].Values[a] = math.NaN()
			}
		}
	}
	return out
}

// observations appends the observations of batch b in pass p to dst.
func (in *inputs) observations(dst []fleet.Observation, b []ref, pass int) []fleet.Observation {
	for _, x := range b {
		d := &in.drives[x.d]
		rec := d.recs[x.r]
		rec.Hour += hourBase + pass*passSpan
		dst = append(dst, fleet.Observation{Serial: d.serial, Record: rec})
	}
	return dst
}

// jsonHourOffsets finds the start of every hour number in a JSON body.
// Serials never contain the key text, so a byte search is exact.
func jsonHourOffsets(body []byte) []int {
	key := []byte(`"hour":`)
	var offs []int
	for i := 0; ; {
		j := bytes.Index(body[i:], key)
		if j < 0 {
			return offs
		}
		i += j + len(key)
		offs = append(offs, i)
	}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// passBody writes batch (s, i) of pass p into dst: the first-pass body
// with every hour moved forward by p passes. For the binary format the
// CRC-32C trailer is recomputed; for JSON the fixed-width hour digits
// are rewritten.
func (in *inputs) passBody(dst []byte, s, i, p int) []byte {
	src := in.bodies[s][i]
	dst = append(dst[:0], src...)
	delta := p * passSpan
	if in.format == "json" {
		for _, off := range in.hourOff[s][i] {
			h := 0
			for _, c := range dst[off : off+hourWidth] {
				h = h*10 + int(c-'0')
			}
			h += delta
			for k := off + hourWidth - 1; k >= off; k-- {
				dst[k] = byte('0' + h%10)
				h /= 10
			}
		}
		return dst
	}
	n := binary.LittleEndian.Uint32(dst[1:])
	off := 5
	for r := uint32(0); r < n; r++ {
		slen := int(binary.LittleEndian.Uint16(dst[off:]))
		h := int32(binary.LittleEndian.Uint32(dst[off+2:]))
		binary.LittleEndian.PutUint32(dst[off+2:], uint32(h+int32(delta)))
		triples := int(binary.LittleEndian.Uint16(dst[off+6:]))
		off += 8 + slen + 10*triples
	}
	binary.LittleEndian.PutUint32(dst[off:], crc32.Checksum(dst[:off], castagnoli))
	return dst
}
