package mqss

import (
	"math"
	"net/http"
	"sort"

	"repro/internal/tenant"
)

// pathV2AdminTenants exposes the multi-tenant admission plane: per-user
// queue accounting (submitted/completed/shed and live depth), token-bucket
// throttle counters, and the configured limits. Operators hit it through
// `qhpcctl tenants status`.
const pathV2AdminTenants = "/api/v2/admin/tenants"

// TenantsStatus is the wire shape of GET /api/v2/admin/tenants. With no
// limiter and no queue bounds configured the endpoint still answers 200
// with both sections absent, so tooling can distinguish "no admission
// control configured" from "endpoint missing".
type TenantsStatus struct {
	// Limiter describes the token-bucket configuration (absent when rate
	// limiting is off).
	Limiter *LimiterStatus `json:"limiter,omitempty"`
	// Admission describes the queue-depth bounds (absent when unbounded).
	Admission *tenant.Admission `json:"admission,omitempty"`
	// Tenants has one row per user ever seen, sorted by user.
	Tenants []TenantStatus `json:"tenants"`
}

// LimiterStatus is the configured token-bucket shape.
type LimiterStatus struct {
	Rate  float64 `json:"rate"`  // tokens (jobs) per second
	Burst int     `json:"burst"` // bucket capacity
}

// TenantStatus is one tenant's merged view: dispatch-queue accounting
// plus the API edge's throttle counters and remaining quota.
type TenantStatus struct {
	tenant.Usage
	Allowed   uint64 `json:"allowed,omitempty"`
	Throttled uint64 `json:"throttled,omitempty"`
	// TokensLeft is the tenant's current token balance (rounded to 3
	// decimals); RetryAfterSec is the whole seconds until one token
	// accrues, 0 when a submission would be admitted right now. Both
	// only appear when a limiter is configured.
	TokensLeft    *float64 `json:"tokens_left,omitempty"`
	RetryAfterSec int      `json:"retry_after,omitempty"`
}

// tenantsStatus assembles the admin snapshot from the fleet's queue
// accounting plus the HTTP-edge limiter.
func (s *Server) tenantsStatus() TenantsStatus {
	adm := s.fleet.Admission()
	rows := map[string]*TenantStatus{}
	for _, u := range s.fleet.TenantUsage() {
		cp := TenantStatus{Usage: u}
		rows[u.User] = &cp
	}
	out := TenantsStatus{Tenants: []TenantStatus{}}
	if adm.Enabled() {
		a := adm
		out.Admission = &a
	}
	if s.limiter != nil {
		out.Limiter = &LimiterStatus{Rate: s.limiter.Rate(), Burst: s.limiter.Burst()}
		for _, lu := range s.limiter.Usage() {
			r, ok := rows[lu.User]
			if !ok {
				// Throttled before any submission was admitted: the tenant
				// exists at the edge but not yet in the queue accounting.
				r = &TenantStatus{Usage: tenant.Usage{User: lu.User}}
				rows[lu.User] = r
			}
			r.Allowed, r.Throttled = lu.Allowed, lu.Throttled
			// Surface remaining quota per tenant: Remaining refreshes the
			// bucket, so the row reflects accrual since the last submission
			// rather than the balance frozen at refusal time.
			tokens := math.Round(s.limiter.Remaining(lu.User)*1000) / 1000
			r.TokensLeft = &tokens
			if ra := s.limiter.RetryAfter(lu.User); ra > 0 {
				r.RetryAfterSec = retryAfterSeconds(ra)
			}
		}
	}
	users := make([]string, 0, len(rows))
	for u := range rows {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		out.Tenants = append(out.Tenants, *rows[u])
	}
	return out
}

func (s *Server) handleV2AdminTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeV2Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			"method not allowed; use GET", false)
		return
	}
	writeJSON(w, http.StatusOK, s.tenantsStatus())
}
