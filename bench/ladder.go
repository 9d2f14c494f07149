package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/bench/e2e"
)

// ladderTimeout bounds the ladder of one workload (it takes 4-10 s), so that
// a traced driver invocation that also spent its reruns ends inside 180 s.
const ladderTimeout = 60 * time.Second

// runLadder builds bench/layers and replays the workload's inputs through
// it. It returns the rows the ladder measured; an error means none.
func (b *bench) runLadder(ctx context.Context, w *e2e.Workload, seed int64) (map[string]float64, error) {
	bin, err := e2e.Build(ctx, b.root, b.benchDir, "./layers", "ladder")
	if err != nil {
		return nil, err
	}
	dataDir := filepath.Join(b.root, ".bench_build", "data", fmt.Sprintf("ladder-%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	out := filepath.Join(b.outDir, "ladder-"+w.Name+".json")
	_ = os.Remove(out) // never read a previous run's rows
	ctx, cancel := context.WithTimeout(ctx, ladderTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-out", out, "-spans", filepath.Join(b.outDir, "ladder-spans-"+w.Name+".json"), "-data-dir", dataDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("running %s: %w", bin, err)
	}
	body, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	rows := map[string]float64{}
	if err := json.Unmarshal(body, &rows); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", out, err)
	}
	return rows, nil
}
