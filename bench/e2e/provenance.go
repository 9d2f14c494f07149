package e2e

import (
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Provenance stamps a result with what produced it (the eBPF-toolkit policy
// in SNIPPETS.md): without it two tables cannot be compared.
type Provenance struct {
	GitCommit   string   `json:"git_commit"` // "unknown" outside a git checkout
	GitDirty    bool     `json:"git_dirty"`
	GoVersion   string   `json:"go_version"`
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Kernel      string   `json:"kernel"`
	DataDirFS   string   `json:"data_dir_fs"`
	Seed        int64    `json:"seed"`
	Seconds     int      `json:"run_seconds"`
	Callers     int      `json:"closed_loop_callers"`
	DaemonFlags []string `json:"daemon_flags"`
	// InputsPerSec and Warmup are the frozen load sizes, per workload.
	Workloads map[string]FrozenLoad `json:"workloads"`
}

// FrozenLoad is the part of a workload's definition that sizes its load.
type FrozenLoad struct {
	Shots, Users, Burst, InputsPerSec, Warmup int
}

// Stamp gathers the provenance of runs made from root.
func Stamp(root string, seed int64, seconds int) *Provenance {
	p := &Provenance{
		GitCommit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: "unknown", DataDirFS: "unknown",
		Seed: seed, Seconds: seconds, Callers: 1,
		DaemonFlags: append(append([]string(nil), DaemonFlags...), "[-data-dir <dir> "+strings.Join(DurableFlags, " ")+"]"),
		Workloads:   map[string]FrozenLoad{},
	}
	git := func(args ...string) (string, bool) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return string(bytes.TrimSpace(out)), err == nil
	}
	// The driver's checkout is not a git repository: both stay unknown there.
	if commit, ok := git("rev-parse", "HEAD"); ok {
		p.GitCommit = commit
		status, _ := git("status", "--porcelain")
		p.GitDirty = status != ""
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = string(bytes.TrimSpace(b))
	}
	if fs, err := FSType(root); err == nil {
		p.DataDirFS = fs
	}
	for _, w := range Workloads {
		p.Workloads[w.Name] = FrozenLoad{w.Shots, w.Users, w.Burst, w.InputsPerSec, w.Warmup}
	}
	return p
}
