// Quickstart: commission an HPC+QC center, submit a GHZ health-check
// circuit through the MQSS client on both access paths, and print the
// measured histograms — the "hello world" an onboarded early user runs.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sort"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/mqss"
	"repro/internal/quantum"
)

func main() {
	// 1. Build the center and commission it: site survey, installation,
	//    cooldown to 10 mK, full calibration.
	center, err := core.New(core.Config{Seed: 2024, Nodes: 16})
	if err != nil {
		log.Fatal(err)
	}
	candidates := []facility.Site{
		{Name: "street-side", Env: facility.NoisyUrban(), DeliveryWidthCM: 100, FloorLoadKgM2: 1200, CellTowerDistM: 400, FluorescentM: 4},
		{Name: "basement", Env: facility.Quiet(), DeliveryWidthCM: 120, FloorLoadKgM2: 1500, CellTowerDistM: 900, FluorescentM: 8},
	}
	days, err := center.CommissionFast(candidates, facility.SurveyConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Selected site: %s\n", center.SiteReport().Site)
	fmt.Printf("Commissioned after a %.1f-day cooldown; phase: %s\n\n", days, center.Phase())

	ctx := context.Background()

	// 2. The HPC path: tightly-coupled, in-process (accelerator mode).
	local := center.LocalClient()
	req := mqss.SubmitRequest{Circuit: circuit.GHZ(5), Shots: 1000, User: "quickstart"}
	job, err := local.Run(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HPC path (%s): job %s %s, compiled to %d native gates (%d CZ)\n",
		local.Path(), job.ID, job.State, job.CompiledGates, job.CZCount)
	printHistogram(job.Counts, 5, job.Layout)

	// 3. The remote path: the same job over the REST API — no code changes
	//    beyond the client constructor (Fig. 2's routing promise).
	srv := httptest.NewServer(center.RESTHandler())
	defer srv.Close()
	remote := mqss.NewRemoteClient(srv.URL, srv.Client())
	rjob, err := remote.Run(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nREST path (%s): job %s %s\n", remote.Path(), rjob.ID, rjob.State)
	printHistogram(rjob.Counts, 5, rjob.Layout)

	// 3b. The async access model Run is built on: submit-and-go, then watch
	//     the lifecycle stream until the terminal state arrives (202 +
	//     Location under the hood).
	handle, err := remote.Submit(ctx, mqss.SubmitRequest{
		Circuit: circuit.GHZ(5), Shots: 500, User: "quickstart",
	}, "quickstart-demo-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nasync: accepted job %s; watching lifecycle:\n", handle.ID)
	final, err := handle.Watch(ctx, func(ev mqss.JobEvent) {
		fmt.Printf("  -> %s %s\n", ev.State, ev.Reason)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async: job %s finished %s in %.1f ms\n", final.ID, final.State, final.DurationUs/1000)

	// 4. Live device data through QDMI, as the training sessions teach.
	calib := center.QDMI.Calibration()
	fmt.Printf("\nDevice: %s — F1Q %.4f, readout %.4f, CZ %.4f (calibration age %.1f h)\n",
		center.QDMI.Properties().Name, calib.MeanF1Q(), calib.MeanFReadout(), calib.MeanFCZ(), calib.AgeHours)
}

// printHistogram shows the outcomes restricted to the placed qubits.
func printHistogram(counts map[int]int, n int, layout []int) {
	// Project physical outcomes onto the placed logical qubits, merging
	// outcomes that differ only on unplaced qubits (readout noise there).
	logical := make(map[int]int)
	total := 0
	for outcome, c := range counts {
		l := 0
		for i, p := range layout {
			if outcome&(1<<uint(p)) != 0 {
				l |= 1 << uint(i)
			}
		}
		logical[l] += c
		total += c
	}
	type row struct {
		bits  string
		count int
	}
	rows := make([]row, 0, len(logical))
	for l, c := range logical {
		rows = append(rows, row{quantum.FormatBitstring(l, n), c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	for i, r := range rows {
		if i >= 6 {
			fmt.Printf("  ... %d more outcomes\n", len(rows)-6)
			break
		}
		fmt.Printf("  |%s>  %5d  (%.1f%%)\n", r.bits, r.count, 100*float64(r.count)/float64(total))
	}
}
