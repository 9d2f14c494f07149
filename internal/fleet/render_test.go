package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/device"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/mqss"
	"repro/internal/qdmi"
)

// TestResultRenderedOnce counts the encodes of a job's result into its
// stored form on its way from the worker to a ?wait reply, the sealed
// record and, with a durable store attached, the terminal journal frame:
// the result is encoded once, as the job is sealed, and the frame's JSON and
// the reply's are rendered from those stored bytes.
func TestResultRenderedOnce(t *testing.T) {
	const jobs = 20
	body := []byte(`{"circuit":{"num_qubits":3,"gates":[{"name":"h","qubits":[0]},{"name":"cx","qubits":[0,1]},{"name":"cx","qubits":[1,2]}]},"shots":100,"user":"u0"}`)
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			qpu, err := device.New(device.Config{Name: "a", Rows: 2, Cols: 2, Seed: 1})
			must(t, err)
			f := fleet.New(fleet.PolicyBestFidelity, nil)
			defer f.Stop()
			must(t, f.AddDevice("a", qdmi.NewDevice(qpu, nil), 1))
			srv := mqss.NewFleetServer(f)
			defer srv.Close()
			if withStore {
				st, rec, err := durable.Open(t.TempDir(), durable.Options{Sync: durable.SyncGroup})
				must(t, err)
				defer st.Close()
				_, err = srv.AttachStore(st, rec)
				must(t, err)
			}
			encodes := fleet.CountEncodes()
			for i := 0; i < jobs; i++ {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v2/jobs?wait=10s", bytes.NewReader(body)))
				var rec struct {
					State  string
					Counts map[string]int
				}
				must(t, json.Unmarshal(w.Body.Bytes(), &rec))
				if w.Code != http.StatusOK || rec.State != "done" || len(rec.Counts) == 0 {
					t.Fatalf("job %d: %d %s", i, w.Code, w.Body.Bytes())
				}
			}
			n := encodes()
			t.Logf("%d result encodes for %d jobs", n, jobs)
			if n != jobs {
				t.Fatalf("%d result encodes for %d jobs: want one per job", n, jobs)
			}
		})
	}
}
