package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"disksig/internal/fleet"
	"disksig/internal/loadgen"
	"disksig/internal/parallel"
	"disksig/internal/persist"
)

// shadow is the in-process reference: one store per stream, each
// restored from the deployment's freshly trained state and fed exactly
// the batches the deployment acknowledged on that stream, through the
// same public ingest call. Streams hold disjoint drives, so the stores
// replay concurrently and their states merge into the fleet's.
type shadow struct {
	stores      []*fleet.Store
	alerts      []string
	ingested    int
	quarantined int
}

func newShadow(initial *fleet.State, streams int) (*shadow, error) {
	sh := &shadow{}
	for i := 0; i < streams; i++ {
		store, err := fleet.Restore(initial, fleet.Config{Shards: 16, Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("building shadow: %w", err)
		}
		sh.stores = append(sh.stores, store)
	}
	return sh, nil
}

// replay applies the first acked[s] batches of every stream s.
func (sh *shadow) replay(in *inputs, acked []int) {
	type out struct {
		alerts                []string
		ingested, quarantined int
	}
	outs := make([]out, len(acked))
	parallel.ForEach(len(acked), len(acked), func(s int) {
		var obs []fleet.Observation
		nb := len(in.batches[s])
		o := &outs[s]
		for k := 0; k < acked[s]; k++ {
			obs = in.observations(obs[:0], in.batches[s][k%nb], k/nb)
			res := sh.stores[s].IngestBatch(obs)
			o.alerts = append(o.alerts, loadgen.BatchAlertKeys(res)...)
			o.ingested += res.Ingested
			o.quarantined += res.Quality.RowsQuarantined
		}
	})
	for _, o := range outs {
		sh.alerts = append(sh.alerts, o.alerts...)
		sh.ingested += o.ingested
		sh.quarantined += o.quarantined
	}
}

// state returns the shadow's fleet state after the same bootstrap-image
// round trip a served export takes, so both sides compare in one
// encoding.
func (sh *shadow) state() (*fleet.State, error) {
	var parts []*fleet.State
	for _, store := range sh.stores {
		img, err := persist.EncodeBootstrap(loadgen.CanonicalState(store), 0, persist.Position{})
		if err != nil {
			return nil, err
		}
		st, _, _, err := persist.DecodeBootstrap(img)
		if err != nil {
			return nil, err
		}
		st.Quality.StripDiagnostics()
		parts = append(parts, st)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return loadgen.MergeStates(parts...)
}

// ackDoc is the part of a POST /v1/ingest acknowledgment the gate reads.
type ackDoc struct {
	Ingested    int `json:"ingested"`
	Kept        int `json:"kept"`
	Quarantined int `json:"quarantined"`
	Alerts      []struct {
		Serial      string  `json:"serial"`
		Hour        int     `json:"hour"`
		Severity    string  `json:"severity"`
		Group       int     `json:"group"`
		Type        string  `json:"type"`
		Degradation float64 `json:"degradation"`
	} `json:"alerts"`
}

// servedAlerts checks every acknowledgment's accounting against the
// batch it answers and returns the acknowledged alert keys.
func servedAlerts(in *inputs, writers []*client) ([]string, int, error) {
	var keys []string
	records := 0
	for s, c := range writers {
		nb := len(in.batches[s])
		for k, raw := range c.acks {
			var a ackDoc
			if err := json.Unmarshal(raw, &a); err != nil {
				return nil, 0, fmt.Errorf("stream %d batch %d: unreadable ack: %w", s, k, err)
			}
			want := len(in.batches[s][k%nb])
			if a.Ingested != want || a.Ingested != a.Kept+a.Quarantined {
				return nil, 0, fmt.Errorf("stream %d batch %d: ack accounts %d = %d kept + %d quarantined for %d records sent",
					s, k, a.Ingested, a.Kept, a.Quarantined, want)
			}
			records += a.Ingested
			for _, al := range a.Alerts {
				keys = append(keys, loadgen.AlertKey(al.Serial, al.Hour, al.Severity, al.Group, al.Type, al.Degradation))
			}
		}
	}
	return keys, records, nil
}

// metricsLedger reads a node's /metrics ingest ledger.
func metricsLedger(c *http.Client, p *proc) (ingested, kept, quarantined int64, err error) {
	var doc struct {
		Ingest struct {
			Ingested    int64 `json:"rows_ingested"`
			Kept        int64 `json:"rows_kept"`
			Quarantined int64 `json:"rows_quarantined"`
		} `json:"ingest"`
	}
	if err := getJSON(c, p.url+"/metrics", &doc); err != nil {
		return 0, 0, 0, fmt.Errorf("%s /metrics: %w", p.name, err)
	}
	return doc.Ingest.Ingested, doc.Ingest.Kept, doc.Ingest.Quarantined, nil
}

// served is what the deployment reports about itself after a run.
type served struct {
	states   []*fleet.State // per storage node, in deployment order
	ledgers  [][3]int64     // per node: /metrics rows ingested, kept, quarantined
	names    []string
	follower *fleet.State // the replicated pair's follower, else nil
}

// collect fetches every node's state (GET /v1/admin/export) and
// /metrics ledger, and the follower's state.
func collect(c *http.Client, d *deployment) (*served, error) {
	sv := &served{}
	for _, p := range d.nodes {
		st, err := exportState(c, p)
		if err != nil {
			return nil, err
		}
		ing, kept, quar, err := metricsLedger(c, p)
		if err != nil {
			return nil, err
		}
		sv.states = append(sv.states, st)
		sv.ledgers = append(sv.ledgers, [3]int64{ing, kept, quar})
		sv.names = append(sv.names, p.name)
	}
	if d.follower != nil {
		st, err := exportState(c, d.follower)
		if err != nil {
			return nil, err
		}
		sv.follower = st
	}
	return sv, nil
}

// check is the correctness gate of a run. Any failure fails the run:
//   - every ack balances (ingested = kept + quarantined = records sent);
//   - each node's /metrics ledger balances, and the nodes' ledgers sum
//     to the records the acks account for and to what the shadow
//     ingested and quarantined;
//   - the served state (merged across nodes when routed) equals the
//     shadow's;
//   - the acknowledged alert multiset equals the shadow's;
//   - a follower's state equals its primary's.
func check(sv *served, in *inputs, writers []*client, sh *shadow) error {
	alerts, records, err := servedAlerts(in, writers)
	if err != nil {
		return err
	}
	var total, quarantined int64
	for i, l := range sv.ledgers {
		if l[0] != l[1]+l[2] {
			return fmt.Errorf("%s /metrics ledger: %d ingested != %d kept + %d quarantined", sv.names[i], l[0], l[1], l[2])
		}
		total += l[0]
		quarantined += l[2]
	}
	if total != int64(records) || records != sh.ingested || quarantined != int64(sh.quarantined) {
		return fmt.Errorf("ledger: nodes ingested %d and quarantined %d, acks account %d, shadow ingested %d and quarantined %d",
			total, quarantined, records, sh.ingested, sh.quarantined)
	}
	got := sv.states[0]
	if len(sv.states) > 1 {
		if got, err = loadgen.MergeStates(sv.states...); err != nil {
			return err
		}
	}
	want, err := sh.state()
	if err != nil {
		return err
	}
	if err := loadgen.CompareStates("shadow", "served", want, got); err != nil {
		return err
	}
	if err := loadgen.CompareAlerts("shadow", "served", sh.alerts, alerts, false); err != nil {
		return err
	}
	if sv.follower != nil {
		if err := loadgen.CompareStates("primary", "follower", sv.states[0], sv.follower); err != nil {
			return err
		}
	}
	return nil
}
