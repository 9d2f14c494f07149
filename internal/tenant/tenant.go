// Package tenant is the multi-tenant admission-control layer: per-user
// token-bucket rate limiting at the API edge, queue-depth bounds that the
// fleet's dispatch queue sheds against under overload, and the per-tenant
// usage accounting that the WFQ claim path, the /metrics plane, and the
// admin tenants endpoint all share. The package is dependency-free so every
// layer (fleet, mqss) can import it without cycles.
package tenant

import (
	"sort"
	"sync"
	"time"
)

// Admission bounds the dispatch queue. Zero values disable each bound —
// the default configuration admits everything, exactly as before.
type Admission struct {
	// MaxTenantQueue caps how many jobs one tenant may have queued at
	// once; past it the tenant's lowest-priority queued job (possibly the
	// incoming one) is shed with a retryable error.
	MaxTenantQueue int `json:"max_tenant_queue,omitempty"`
	// HighWater caps the global queue depth; past it the globally
	// lowest-priority queued job is shed regardless of tenant.
	HighWater int `json:"high_water,omitempty"`
}

// Enabled reports whether any bound is configured.
func (a Admission) Enabled() bool { return a.MaxTenantQueue > 0 || a.HighWater > 0 }

// Usage is one tenant's dispatch-queue accounting: current depth plus
// lifetime outcome counters. The fleet scheduler keeps one row per user on
// its queue and counts each submission once, whatever device ran it;
// recovery counts the jobs a restart re-queued. Interrupted counts jobs
// whose dispatch deadline passed while the server was down.
type Usage struct {
	User        string `json:"user"`
	Queued      int    `json:"queued"`
	Submitted   uint64 `json:"submitted"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Cancelled   uint64 `json:"cancelled"`
	Interrupted uint64 `json:"interrupted"`
	Shed        uint64 `json:"shed"`
}

// Limiter is a per-user token-bucket rate limiter: each user accrues
// rate tokens per second up to burst, and one submission costs one token.
// A nil *Limiter admits everything — callers never branch on "limiting
// configured?".
type Limiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time // test hook
}

type bucket struct {
	tokens    float64
	last      time.Time
	allowed   uint64
	throttled uint64
}

// NewLimiter builds a limiter at rate jobs/second with the given burst
// capacity (floored at 1). rate <= 0 returns nil: limiting disabled.
func NewLimiter(rate float64, burst int) *Limiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &Limiter{
		rate:    rate,
		burst:   float64(burst),
		buckets: map[string]*bucket{},
		now:     time.Now,
	}
}

// SetClock replaces the wall clock (tests only).
func (l *Limiter) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
}

// Rate returns the configured refill rate (0 on a nil limiter).
func (l *Limiter) Rate() float64 {
	if l == nil {
		return 0
	}
	return l.rate
}

// Burst returns the configured bucket capacity (0 on a nil limiter).
func (l *Limiter) Burst() int {
	if l == nil {
		return 0
	}
	return int(l.burst)
}

// Allow spends one token for user. When the bucket is empty it refuses
// and returns how long until one token accrues — the Retry-After the API
// layer surfaces. Nil limiters always allow.
func (l *Limiter) Allow(user string) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, found := l.buckets[user]
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[user] = b
	}
	if el := now.Sub(b.last).Seconds(); el > 0 {
		b.tokens += el * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		b.allowed++
		return true, 0
	}
	b.throttled++
	return false, time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
}

// Remaining reports user's current token balance without spending any,
// refreshing the bucket first so the answer reflects accrual since the
// last Allow. Unknown users hold a full burst; nil limiters report 0.
func (l *Limiter) Remaining(user string) float64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[user]
	if !found {
		return l.burst
	}
	tokens := b.tokens
	if el := l.now().Sub(b.last).Seconds(); el > 0 {
		tokens += el * l.rate
		if tokens > l.burst {
			tokens = l.burst
		}
	}
	return tokens
}

// RetryAfter reports how long until user accrues one whole token (zero
// when a token is already available). Nil-safe.
func (l *Limiter) RetryAfter(user string) time.Duration {
	if l == nil {
		return 0
	}
	tokens := l.Remaining(user)
	if tokens >= 1 {
		return 0
	}
	return time.Duration((1 - tokens) / l.rate * float64(time.Second))
}

// LimiterUsage is one user's view of the token bucket, for the admin
// endpoint and /metrics.
type LimiterUsage struct {
	User      string  `json:"user"`
	Allowed   uint64  `json:"allowed"`
	Throttled uint64  `json:"throttled"`
	Tokens    float64 `json:"tokens"`
}

// Usage snapshots every bucket, sorted by user. Nil-safe (returns nil).
func (l *Limiter) Usage() []LimiterUsage {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LimiterUsage, 0, len(l.buckets))
	for user, b := range l.buckets {
		out = append(out, LimiterUsage{
			User: user, Allowed: b.allowed, Throttled: b.throttled, Tokens: b.tokens,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}
