// Monitor: the online application of the pipeline (the paper's planned
// reliability middleware). Trains on one fleet, then streams a held-out
// failing drive's telemetry hour by hour, printing each alert with the
// estimated remaining time to failure.
package main

import (
	"fmt"
	"log"

	"disksig"
	"disksig/internal/monitor"
	"disksig/internal/smart"
)

func main() {
	log.SetFlags(0)

	// Train the per-group degradation predictors.
	trainFleet, err := disksig.GenerateFleet(disksig.FleetConfig(disksig.ScaleSmall, 1))
	if err != nil {
		log.Fatal(err)
	}
	ch, err := disksig.Characterize(trainFleet, disksig.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	models, norms, err := monitor.ModelsFromCharacterization(ch)
	if err != nil {
		log.Fatal(err)
	}
	mon, err := monitor.NewMulti(models, norms, monitor.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// A held-out fleet the models have never seen.
	liveFleet, err := disksig.GenerateFleet(disksig.FleetConfig(disksig.ScaleSmall, 99))
	if err != nil {
		log.Fatal(err)
	}
	drive := liveFleet.Failed[0]
	fmt.Printf("streaming drive #%d (%d hourly records, fails at the last one)\n\n",
		drive.DriveID, drive.Len())

	// Monitor drive IDs index a slice and must be dense: the failed drive
	// is monitor drive 0 and the healthy one drive 1. Alerts are
	// relabelled with the dataset's DriveID for printing.
	for _, rec := range drive.Records {
		if alert, _ := mon.IngestClass(0, smart.HDD, rec); alert != nil {
			alert.DriveID = drive.DriveID
			fmt.Println(alert)
		}
	}

	st, _ := mon.Status(0)
	fmt.Printf("\nfinal state: severity=%s degradation=%+.2f (actual failure occurred at hour %d)\n",
		st.Severity, st.Degradation, drive.Records[drive.Len()-1].Hour)

	// Contrast with a healthy drive: it should stay quiet.
	good := liveFleet.Good[0]
	quiet := true
	for _, rec := range good.Records {
		if alert, _ := mon.IngestClass(1, smart.HDD, rec); alert != nil && alert.Severity >= monitor.Warning {
			alert.DriveID = good.DriveID
			quiet = false
			fmt.Println("unexpected:", alert)
		}
	}
	if quiet {
		fmt.Printf("healthy drive #%d streamed %d records without a warning\n", good.DriveID, good.Len())
	}
}
