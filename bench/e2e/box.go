package e2e

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Sentinel measures how much the box stalled the harness while a run was
// timed: a 1 ms ticker whose wake-ups should be 1 ms apart. Every gap over
// 5 ms adds its overshoot to the total. No change to the code under test can
// cause a stall here, so a run that lost too large a share of its wall to
// them is an INFRA_FLAKE, not a measurement.
type Sentinel struct {
	stop    chan struct{}
	done    chan struct{}
	stalled time.Duration
}

func StartSentinel() *Sentinel {
	s := &Sentinel{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			// The tick carries the time it was due; a stall shows in when
			// this goroutine got to run.
			now := time.Now()
			if gap := now.Sub(last); gap > 5*time.Millisecond {
				s.stalled += gap - time.Millisecond
			}
			last = now
		}
	}()
	return s
}

// Stop ends the sentinel, waits for its goroutine, and returns the stall total.
func (s *Sentinel) Stop() time.Duration {
	close(s.stop)
	<-s.done
	return s.stalled
}

// BoxTicks is the whole box's CPU accounting at one instant: the first line
// of /proc/stat, in USER_HZ ticks summed over the CPUs.
type BoxTicks struct {
	Busy  int64 // user + nice + system + irq + softirq
	Steal int64 // a vCPU had work to run and the hypervisor ran someone else
}

// ReadBoxTicks reads /proc/stat.
func ReadBoxTicks() (BoxTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return BoxTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return BoxTicks{}, fmt.Errorf("malformed /proc/stat line %q", line)
	}
	var v [8]int64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return BoxTicks{}, fmt.Errorf("malformed /proc/stat line %q", line)
		}
	}
	return BoxTicks{Busy: v[0] + v[1] + v[2] + v[5] + v[6], Steal: v[7]}, nil
}

// Dilation is by how much the hypervisor stretched the interval between two
// readings for the work that ran in it: (busy + steal) / busy, 1 on a box
// that lost nothing. On the shared reference box the steal of a one-second
// window explains its throughput (correlation -0.94 over 100 windows of
// hybrid-loop, 0.3 once the rate is multiplied by this factor), so the
// harness measures throughput on the clock that stops while the CPU is
// stolen, and takes latencies from the windows stretched least.
func Dilation(from, to BoxTicks) float64 {
	busy, steal := to.Busy-from.Busy, to.Steal-from.Steal
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return float64(busy+steal) / float64(busy)
}
