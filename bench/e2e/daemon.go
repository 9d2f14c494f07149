package e2e

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Build compiles a main package of the repository at root into
// root/.bench_build/<name>. dir is where `go build` runs: the root for the
// daemon, the bench module for the ladder.
func Build(ctx context.Context, root, dir, pkg, name string) (string, error) {
	out := filepath.Join(root, ".bench_build", name)
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", pkg, err, bytes.TrimSpace(b))
	}
	return out, nil
}

// Daemon is one running qhpcd process on a loopback port.
type Daemon struct {
	URL string

	cmd    *exec.Cmd
	exited chan struct{}
	killed atomic.Bool // the harness sent the signal
	log    *os.File
}

// StartDaemon execs bin with flags on a free loopback port and returns once
// GET readyPath answers 200. Its output is appended to logPath.
func StartDaemon(ctx context.Context, bin string, flags []string, logPath, readyPath string) (*Daemon, error) {
	// A port the kernel just handed out is free to rebind: the listener is
	// closed without ever accepting, so nothing lingers in TIME_WAIT.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &Daemon{URL: "http://" + addr, cmd: cmd, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState by DiedOnItsOwn
		close(d.exited)
	}()
	if err := d.waitReady(ctx, d.URL+readyPath); err != nil {
		d.Kill()
		return nil, err
	}
	return d, nil
}

// waitReady polls url until it answers 200, the daemon exits, or ctx ends.
func (d *Daemon) waitReady(ctx context.Context, url string) error {
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("qhpcd exited before answering %s (see %s)", url, d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Kill sends SIGKILL — the crash the durable workload recovers from, and
// the ordinary end of every other run — and waits for the process to end.
func (d *Daemon) Kill() {
	d.killed.Store(true)
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.exited
	d.log.Close()
}

// DiedOnItsOwn reports whether the process has ended without the harness
// having killed it, and how.
func (d *Daemon) DiedOnItsOwn() (bool, string) {
	select {
	case <-d.exited:
	default:
		return false, ""
	}
	if d.killed.Load() {
		return false, ""
	}
	return true, d.cmd.ProcessState.String()
}

// Pid of the daemon process.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// clockTicksPerSec is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicksPerSec = 100

// CPUTime is the daemon's user+system CPU time so far.
func (d *Daemon) CPUTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.Pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return time.Duration(utime+stime) * time.Second / clockTicksPerSec, nil
}

// RSSKB is the daemon's resident set in KiB.
func (d *Daemon) RSSKB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", d.Pid()))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc statm line")
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / 1024, nil
}

// FSType names the filesystem holding path ("tmpfs", "ext4", or the magic
// number in hex for one this table does not know).
func FSType(path string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "", err
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0x858458f6:
		return "ramfs", nil
	case 0xef53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683e:
		return "btrfs", nil
	case 0x794c7630:
		return "overlayfs", nil
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), nil
}
