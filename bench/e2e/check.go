package e2e

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Record is the part of the v2 job resource the checker reads.
type Record struct {
	ID     string         `json:"id"`
	State  string         `json:"state"`
	Device string         `json:"device"`
	Shots  int            `json:"shots"`
	Layout []int          `json:"layout"`
	Counts map[string]int `json:"counts"`
	Error  *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// CheckRecord verifies one terminal record against the input that produced
// it: the job is done, its counts sum to the shots asked for, every outcome
// fits the device register, and the layout places every logical qubit. It
// returns the counts marginalised onto the logical qubits (outcome keys are
// over the whole device register; logical qubit i was read at bit layout[i]).
func CheckRecord(rec *Record, nq, shots int, deviceQubits map[string]int) (map[int]int, error) {
	if rec.State != "done" {
		if rec.Error != nil {
			return nil, fmt.Errorf("job %s is %s: %s: %s", rec.ID, rec.State, rec.Error.Code, rec.Error.Message)
		}
		return nil, fmt.Errorf("job %s is %s, want done", rec.ID, rec.State)
	}
	width, ok := deviceQubits[rec.Device]
	if !ok {
		return nil, fmt.Errorf("job %s ran on unknown device %q", rec.ID, rec.Device)
	}
	if len(rec.Layout) != nq {
		return nil, fmt.Errorf("job %s layout places %d qubits, circuit has %d", rec.ID, len(rec.Layout), nq)
	}
	for _, p := range rec.Layout {
		if p < 0 || p >= width {
			return nil, fmt.Errorf("job %s layout qubit %d outside device register of %d", rec.ID, p, width)
		}
	}
	logical := make(map[int]int, len(rec.Counts))
	total := 0
	for k, n := range rec.Counts {
		key, err := strconv.Atoi(k)
		if err != nil || key < 0 || key >= 1<<width {
			return nil, fmt.Errorf("job %s outcome %q outside the %d-qubit register", rec.ID, k, width)
		}
		if n < 0 {
			return nil, fmt.Errorf("job %s outcome %q has negative count %d", rec.ID, k, n)
		}
		total += n
		idx := 0
		for i, p := range rec.Layout {
			idx |= (key >> p & 1) << i
		}
		logical[idx] += n
	}
	if total != shots {
		return nil, fmt.Errorf("job %s counts sum to %d, want %d shots", rec.ID, total, shots)
	}
	return logical, nil
}

// CheckReplay verifies an idempotent replay: the same job id as the original
// submission, flagged by the Idempotency-Replayed header.
func CheckReplay(originalID, replayID, replayedHeader string) error {
	if replayID != originalID {
		return fmt.Errorf("replayed key returned job %s, original was %s", replayID, originalID)
	}
	if replayedHeader != "true" {
		return fmt.Errorf("replay of job %s lacks Idempotency-Replayed: true", originalID)
	}
	return nil
}

// CountsDigest is a canonical rendering of a counts map, compared across a
// restart to show a recovered job kept its result.
func CountsDigest(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(counts[k]))
		b.WriteByte(' ')
	}
	return b.String()
}

// Tally pools logical counts for the distribution checks.
type Tally struct {
	// pooled[key] accumulates counts per distinct circuit: CircID for
	// repeated circuits, the input index for sampled fresh-parameter inputs.
	pooled map[int]map[int]int
	circ   map[int]*Circuit
}

func NewTally() *Tally {
	return &Tally{pooled: map[int]map[int]int{}, circ: map[int]*Circuit{}}
}

// Add pools one checked job. idx is the input's position in the sequence.
func (t *Tally) Add(in *Input, idx int, logical map[int]int) {
	if in.Circ == nil {
		return
	}
	key := in.CircID
	if key < 0 {
		key = idx
	}
	p := t.pooled[key]
	if p == nil {
		p = map[int]int{}
		t.pooled[key] = p
		t.circ[key] = in.Circ
	}
	for k, n := range logical {
		p[k] += n
	}
}

// Verdict applies the workload's distribution check to the pooled counts
// and returns the measured statistic.
func (t *Tally) Verdict(w *Workload) (stat float64, err error) {
	if len(t.pooled) == 0 {
		return 0, fmt.Errorf("no checked job contributed to the distribution check")
	}
	sum := 0.0
	for key, counts := range t.pooled {
		c := t.circ[key]
		if w.Circuits == CircuitsGHZ {
			total := 0
			for _, n := range counts {
				total += n
			}
			sum += float64(counts[0]+counts[1<<c.NumQubits-1]) / float64(total)
			continue
		}
		p, err := Ideal(c)
		if err != nil {
			return 0, err
		}
		sum += TVD(counts, p)
	}
	stat = sum / float64(len(t.pooled))
	if w.Circuits == CircuitsGHZ {
		if stat < w.GHZFloor {
			return stat, fmt.Errorf("mean GHZ population %.3f is under the floor %.3f", stat, w.GHZFloor)
		}
		return stat, nil
	}
	if stat > w.TVDBound {
		return stat, fmt.Errorf("mean total-variation distance %.3f to the ideal distribution exceeds the bound %.3f", stat, w.TVDBound)
	}
	return stat, nil
}
