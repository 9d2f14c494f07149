package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"

	"repro/bench/e2e"
)

// cell is one (workload, end-to-end metric) over the valid runs of a set.
type cell struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newCell(values []float64) cell {
	c := cell{Values: values, Median: e2e.Median(values)}
	c.Q1, c.Q3 = c.Median, c.Median // one run has no quartiles, and NaN has no JSON
	if len(values) > 1 {
		c.Q1, c.Q3 = e2e.Quartiles(values)
	}
	return c
}

// set is one set of -reps valid runs of every workload.
type set struct {
	EndToEnd  map[string]map[string]cell `json:"end_to_end"` // workload -> metric
	Attempted map[string]int             `json:"attempted"`
	Failed    map[string]int             `json:"failed"`
	Correct   map[string]bool            `json:"correct"`
	last      map[string]*e2e.Result
}

func (b *bench) runSet(ctx context.Context) (*set, error) {
	s := &set{EndToEnd: map[string]map[string]cell{}, Attempted: map[string]int{}, Failed: map[string]int{},
		Correct: map[string]bool{}, last: map[string]*e2e.Result{}}
	for _, w := range e2e.Workloads {
		values := map[string][]float64{}
		s.Correct[w.Name] = true
		for rep := 0; rep < b.opt.reps; rep++ {
			fmt.Fprintf(os.Stderr, "qbench: %s run %d/%d (%d s)\n", w.Name, rep+1, b.opt.reps, b.opt.seconds)
			b.rerunsLeft = MaxReruns
			res, err := b.validRun(ctx, w, b.opt.seed+int64(rep), b.opt.seconds, false, setupRepsPerRun)
			if err != nil {
				return nil, err
			}
			b.printNotes(w, res)
			for _, m := range b.spec.EndToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name])
			}
			s.Attempted[w.Name] += res.Attempted
			s.Failed[w.Name] += res.Failed
			s.Correct[w.Name] = s.Correct[w.Name] && res.Correct
			s.last[w.Name] = res
		}
		s.EndToEnd[w.Name] = map[string]cell{}
		for name, v := range values {
			s.EndToEnd[w.Name][name] = newCell(v)
		}
	}
	return s, nil
}

// report is the command without -workload: every workload, every metric.
func (b *bench) report(ctx context.Context) error {
	first, err := b.runSet(ctx)
	if err != nil {
		return err
	}
	var second *set
	if b.opt.checkRepeat {
		if second, err = b.runSet(ctx); err != nil {
			return err
		}
	}
	layers := map[string]map[string]float64{}
	for _, w := range e2e.Workloads {
		fmt.Fprintf(os.Stderr, "qbench: %s traced run and ladder\n", w.Name)
		b.rerunsLeft = MaxReruns
		l, res, err := b.tracedRun(ctx, w, b.opt.seed, b.opt.seconds, first.last[w.Name])
		if err != nil {
			return err
		}
		b.printNotes(w, res)
		layers[w.Name] = l
	}

	b.printProvenance()
	b.printEndToEnd(first)
	b.printLayers(layers)
	b.printReconciliation(layers)
	result := map[string]interface{}{"provenance": b.prov, "first": first, "per_layer": layers}
	ok := true
	if second != nil {
		result["second"] = second
		ok = b.printRepeat(first, second)
	}
	if err := e2e.WriteJSON(filepath.Join(b.outDir, "result.json"), result); err != nil {
		return err
	}
	if err := e2e.WriteJSON(filepath.Join(b.outDir, "provenance.json"), b.prov); err != nil {
		return err
	}
	for _, w := range e2e.Workloads {
		if first.Failed[w.Name] > 0 || !first.Correct[w.Name] {
			return fmt.Errorf("%s: %d of %d jobs failed or the result checks did not hold", w.Name, first.Failed[w.Name], first.Attempted[w.Name])
		}
	}
	if !ok {
		return fmt.Errorf("two sets of runs of the same binary disagree by more than a bound")
	}
	return nil
}

func (b *bench) printProvenance() {
	p := b.prov
	dirty := ""
	if p.GitDirty {
		dirty = " (dirty)"
	}
	fmt.Printf("qbench  commit %s%s  %s  nproc %d  GOMAXPROCS %d  kernel %s  data-dir fs %s\n",
		p.GitCommit, dirty, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.Kernel, p.DataDirFS)
	fmt.Printf("        seed %d  %d s per run  %d closed-loop caller  %d run(s) per workload  qhpcd %v\n",
		p.Seed, p.Seconds, p.Callers, b.opt.reps, p.DaemonFlags)
	for _, w := range e2e.Workloads {
		fmt.Printf("        %-14s %+v\n", w.Name, p.Workloads[w.Name])
	}
	fmt.Println()
}

func bound(m Metric, smoke bool) string {
	if smoke {
		return "-"
	}
	sign := "+"
	if m.Better == "higher" {
		sign = "-"
	}
	return fmt.Sprintf("%s%.0f%%", sign, 100*m.Bound)
}

func (b *bench) printEndToEnd(s *set) {
	fmt.Println("END-TO-END  median [q1 .. q3] over the valid runs, on the clock that stops while the hypervisor has the CPU (README.md)")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\tbound\tmedian\tq1\tq3\tjobs")
	for _, w := range e2e.Workloads {
		for _, m := range b.spec.EndToEnd {
			c := s.EndToEnd[w.Name][m.Name]
			jobs := ""
			if n := s.last[w.Name].Samples[m.Name]; n > 0 {
				jobs = fmt.Sprint(n) // samples behind the percentile, last run
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%s\n",
				w.Name, m.Name, m.Unit, m.Better, bound(m, b.opt.smoke), c.Median, c.Q1, c.Q3, jobs)
		}
		share := float64(s.Failed[w.Name]) / math.Max(1, float64(s.Attempted[w.Name]))
		fmt.Fprintf(tw, "%s\tfailed_share\tshare\tlower\tany\t%.4g\t\t\t%d of %d\n",
			w.Name, share, s.Failed[w.Name], s.Attempted[w.Name])
	}
	tw.Flush()
	fmt.Println()
}

func (b *bench) printLayers(layers map[string]map[string]float64) {
	fmt.Printf("PER-LAYER  one traced run and one ladder per workload; %g = the probe failed\n", MissingMetric)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit\tbetter")
	for _, w := range e2e.Workloads {
		fmt.Fprintf(tw, "\t%s", w.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range b.spec.PerLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s", m.Name, m.Unit, m.Better)
		for _, w := range e2e.Workloads {
			v, ok := layers[w.Name][m.Name]
			if !ok {
				v = MissingMetric
			}
			fmt.Fprintf(tw, "\t%.4g", v)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Println()
}

// printReconciliation shows, per workload, that the ladder's self times and
// the unattributed row add up to what the client measured.
func (b *bench) printReconciliation(layers map[string]map[string]float64) {
	fmt.Println("RECONCILIATION  job_ms_p50 (traced run) = client.unattributed_ms + the ladder's self times; all in ms")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	rungs := []string{"mqss", "fleet", "transpile", "device", "circuit", "quantum"}
	fmt.Fprint(tw, "workload\tjob_ms_p50\tunattributed")
	for _, r := range rungs {
		fmt.Fprintf(tw, "\t%s.self", r)
	}
	fmt.Fprintln(tw, "\tsum")
	for _, w := range e2e.Workloads {
		l := layers[w.Name]
		sum := l["client.unattributed_ms"]
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g", w.Name, l["job_ms_p50"], l["client.unattributed_ms"])
		for _, r := range rungs {
			ms := l[r+".self_us_p50"] / 1000
			sum += ms
			fmt.Fprintf(tw, "\t%.4g", ms)
		}
		fmt.Fprintf(tw, "\t%.4g\n", sum)
	}
	tw.Flush()
	fmt.Println()
}

// printRepeat compares the medians of two sets of runs of the same binary.
// A difference over the bound fails; the bound each metric would have
// needed is printed either way.
func (b *bench) printRepeat(first, second *set) bool {
	fmt.Println("REPEAT  medians of two sets of runs of the same binary; a difference over the bound fails")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiffers\tbound\tverdict")
	ok := true
	need := map[string]float64{}
	for _, w := range e2e.Workloads {
		for _, m := range b.spec.EndToEnd {
			a, c := first.EndToEnd[w.Name][m.Name].Median, second.EndToEnd[w.Name][m.Name].Median
			diff := math.Abs(c-a) / a
			need[m.Name] = math.Max(need[m.Name], diff)
			verdict := "ok"
			if diff > m.Bound && !b.opt.smoke {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.1f%%\t%.0f%%\t%s\n", w.Name, m.Name, a, c, 100*diff, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	for _, m := range b.spec.EndToEnd {
		fmt.Printf("        %s would have needed a bound of %.1f%% (has %.0f%%)\n", m.Name, 100*need[m.Name], 100*m.Bound)
	}
	fmt.Println()
	return ok
}
