package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"text/tabwriter"
	"time"

	"freshen/internal/fleet"
)

// cmdFleetStatus fetches a fleet router's /status and renders the
// shard table: health, placement size, budget slice, traffic weight,
// and each live shard's mode and freshness.
func cmdFleetStatus(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("fleet-status", flag.ContinueOnError)
	url := fs.String("url", "http://localhost:8081", "fleet router base URL")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Get(*url + "/status")
	if err != nil {
		return fmt.Errorf("fetching fleet status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet status: %s", resp.Status)
	}
	var st fleet.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decoding fleet status: %w", err)
	}
	if st.Shards == 0 {
		return fmt.Errorf("%s/status has no shards — is it a fleet router? (single mirrors answer /status too)", *url)
	}

	fmt.Fprintf(out, "fleet: %d/%d shards healthy, %d objects, budget %.4g/period, mode %s\n",
		st.HealthyShards, st.Shards, st.Objects, st.Budget, st.Mode)
	ok := "certified"
	if !st.AllocationOK {
		ok = "FAILED"
	}
	fmt.Fprintf(out, "allocation: PF %.6f, %d levelings (%d failed), latest %s\n",
		st.Perceived, st.Reallocations, st.AllocFailures, ok)

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SHARD\tHEALTHY\tOBJECTS\tSLICE\tWEIGHT\tMODE\tPF\tACCESSES\tKILLS")
	for _, sh := range st.ShardStatus {
		mode, pf, accesses := "-", "-", "-"
		if sh.Status != nil {
			mode = sh.Status.Mode
			pf = fmt.Sprintf("%.6f", sh.Status.PlannedPF)
			accesses = fmt.Sprintf("%d", sh.Status.Accesses)
		}
		fmt.Fprintf(w, "%d\t%v\t%d\t%.4g\t%.3f\t%s\t%s\t%s\t%d\n",
			sh.Shard, sh.Healthy, sh.Objects, sh.Slice, sh.Weight, mode, pf, accesses, sh.Kills)
	}
	return w.Flush()
}
