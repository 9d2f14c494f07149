package tenant

import (
	"testing"
	"time"
)

func TestLimiterDisabled(t *testing.T) {
	if l := NewLimiter(0, 4); l != nil {
		t.Fatalf("rate 0 should disable the limiter, got %+v", l)
	}
	if l := NewLimiter(-1, 4); l != nil {
		t.Fatal("negative rate should disable the limiter")
	}
	// A nil limiter is always permissive — callers never nil-check.
	var l *Limiter
	if ok, _ := l.Allow("anyone"); !ok {
		t.Fatal("nil limiter must allow everything")
	}
	if u := l.Usage(); u != nil {
		t.Fatalf("nil limiter usage should be nil, got %v", u)
	}
}

func TestLimiterBurstThenRefill(t *testing.T) {
	l := NewLimiter(10, 3) // 10 tokens/s, bucket of 3
	now := time.Unix(0, 0)
	l.SetClock(func() time.Time { return now })

	// A fresh tenant starts with a full bucket.
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst submission %d should pass", i)
		}
	}
	ok, retry := l.Allow("a")
	if ok {
		t.Fatal("4th immediate submission should be throttled")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry hint out of range for 10/s: %v", retry)
	}

	// After the hinted wait, exactly one token is back.
	now = now.Add(retry)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("submission after the hinted wait should pass")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("bucket should be empty again immediately after")
	}

	// Refill is capped at burst: a long idle gap does not bank tokens.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("post-idle submission %d should pass", i)
		}
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("idle time must not bank more than burst tokens")
	}
}

func TestLimiterIsolatesTenants(t *testing.T) {
	l := NewLimiter(1, 1)
	now := time.Unix(0, 0)
	l.SetClock(func() time.Time { return now })

	if ok, _ := l.Allow("noisy"); !ok {
		t.Fatal("first noisy submission should pass")
	}
	for i := 0; i < 5; i++ {
		if ok, _ := l.Allow("noisy"); ok {
			t.Fatal("noisy tenant should be throttled")
		}
	}
	// The noisy tenant's empty bucket must not affect the quiet one.
	if ok, _ := l.Allow("quiet"); !ok {
		t.Fatal("quiet tenant must be unaffected by the noisy one")
	}

	u := l.Usage()
	if len(u) != 2 || u[0].User != "noisy" || u[1].User != "quiet" {
		t.Fatalf("usage rows wrong: %+v", u)
	}
	if u[0].Allowed != 1 || u[0].Throttled != 5 {
		t.Fatalf("noisy counters wrong: %+v", u[0])
	}
	if u[1].Allowed != 1 || u[1].Throttled != 0 {
		t.Fatalf("quiet counters wrong: %+v", u[1])
	}
}

func TestAdmissionEnabled(t *testing.T) {
	if (Admission{}).Enabled() {
		t.Fatal("zero admission config should be disabled")
	}
	if !(Admission{MaxTenantQueue: 4}).Enabled() {
		t.Fatal("per-tenant bound should enable admission")
	}
	if !(Admission{HighWater: 100}).Enabled() {
		t.Fatal("global high-water should enable admission")
	}
}
