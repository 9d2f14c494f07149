package mqss

// Federation glue: any member of a qhpcd federation serves the whole v2
// job API. Submissions are placed by rendezvous hash on (tenant,
// idempotency-key) and forwarded to their owner; reads, cancels, watch
// streams, and traces on jobs another node owns are transparently
// proxied there (the job ID names its owner — see internal/federation).
// X-Request-ID and the federation headers ride along, so the owner's
// trace gains a cross-node leg and the client's request id correlates
// end to end.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/federation"
)

const pathV2Federation = "/api/v2/federation"

// fedUnaryTimeout bounds unary proxied calls (reads, cancels, forwarded
// submits) so a wedged owner that accepts TCP but never answers cannot
// hold the proxying handler open forever. It must exceed maxWait: a
// proxied ?wait= long-poll is still a unary exchange. Watch streams are
// exempt — they are legitimately unbounded and rely on the inbound
// request context instead.
const fedUnaryTimeout = maxWait + 10*time.Second

// fedProxyHeaders are the request headers a proxied call carries to the
// owner node verbatim.
var fedProxyHeaders = []string{
	"X-Request-ID", "Accept", "Content-Type", "Idempotency-Key",
}

// fedResponseHeaders are the owner's response headers passed back to the
// client unchanged.
var fedResponseHeaders = []string{
	"Content-Type", "Location", "Retry-After", "Idempotency-Replayed", "Cache-Control",
}

// AttachFederation joins this server to a federation: the fleet becomes
// member f.Self(), minting only inside its ID block, the
// /api/v2/federation/* endpoints register, and the v2 job API turns on
// transparent ownership routing. Call it before the server takes traffic
// and after AttachStore on restarting nodes, so recovered jobs are already
// in place when peers start proxying.
func (s *Server) AttachFederation(f *federation.Node) {
	s.fleet.SetOwner(f.Self(), f.SelfBase(), f.SelfLimit())
	s.fed = f
	s.fedClient = &http.Client{} // no global timeout: watch streams are long-lived
	s.mux.HandleFunc(pathV2Federation+"/", withRequestID(s.handleV2Federation))
}

// Federation returns the attached federation node (nil standalone).
func (s *Server) Federation() *federation.Node { return s.fed }

// handleV2Federation routes /api/v2/federation/{status,heartbeat,owner}.
func (s *Server) handleV2Federation(w http.ResponseWriter, r *http.Request) {
	sub := strings.TrimPrefix(r.URL.Path, pathV2Federation+"/")
	switch sub {
	case "status":
		if r.Method != http.MethodGet {
			writeV2Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed", r.Method), false)
			return
		}
		writeJSON(w, http.StatusOK, s.fed.Status())
	case "heartbeat":
		s.fed.HandleHeartbeat(w, r)
	case "owner":
		if r.Method != http.MethodGet {
			writeV2Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
				fmt.Sprintf("method %s not allowed", r.Method), false)
			return
		}
		id, err := ParseJobID(r.URL.Query().Get("id"))
		if err != nil {
			writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error(), false)
			return
		}
		info, ok := s.fed.Owner(id)
		if !ok {
			writeV2Error(w, http.StatusNotFound, CodeNotFound,
				fmt.Sprintf("job id %s is outside every member's range", FormatJobID(id)), false)
			return
		}
		writeJSON(w, http.StatusOK, info)
	default:
		writeV2Error(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no federation resource %q", sub), false)
	}
}

// FederationStatus reads the membership table from a v2 server
// (GET /api/v2/federation/status).
func (c *Client) FederationStatus(ctx context.Context) (*federation.Status, error) {
	var st federation.Status
	if _, err := c.doJSON(ctx, http.MethodGet, pathV2Federation+"/status", nil, &st, nil, http.StatusOK); err != nil {
		return nil, err
	}
	return &st, nil
}

// fedJobOwner resolves which remote member owns a job ID. proxied is
// false when the job is local (or the server is not federated), in which
// case the caller serves it as usual.
func (s *Server) fedJobOwner(id int) (owner string, proxied bool) {
	if s.fed == nil {
		return "", false
	}
	owner = s.fed.OwnerOfJobID(id)
	if owner == "" || owner == s.fed.Self() {
		return "", false
	}
	return owner, true
}

// fedProxy relays the current request to owner and streams the response
// back. body overrides the request body (forwarded submits re-send the
// decoded request); nil means no body. stream selects flush-per-chunk
// pass-through for watch streams.
//
// Two refusal paths, both deliberate:
//   - A request that was already proxied once must not hop again — the
//     two nodes disagree about ownership, which is a configuration error
//     (mismatched member lists), not a transient.
//   - A dead owner is answered 503 retryable instead of re-placing the
//     job: the owner's durable store is authoritative and will recover
//     it on restart, and re-placing risks double execution.
func (s *Server) fedProxy(w http.ResponseWriter, r *http.Request, owner string, body io.Reader, stream bool) {
	if from := r.Header.Get(federation.HeaderForwardedFrom); from != "" {
		s.fed.NoteProxyError()
		writeV2Error(w, http.StatusBadGateway, CodeInternal,
			fmt.Sprintf("federation directory inconsistency: node %s does not own this job but the request was already proxied from %s (member lists disagree)",
				s.fed.Self(), from), false)
		return
	}
	if !s.fed.Alive(owner) {
		s.fed.NoteProxyError()
		w.Header().Set("Retry-After", "1")
		writeV2Error(w, http.StatusServiceUnavailable, CodeUnavailable,
			fmt.Sprintf("owner node %q is down; retry — its durable store recovers the job when it restarts", owner), true)
		return
	}
	url := s.fed.PeerURL(owner) + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	ctx := r.Context()
	if !stream {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, fedUnaryTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, body)
	if err != nil {
		writeV2Error(w, http.StatusInternalServerError, CodeInternal, err.Error(), false)
		return
	}
	for _, h := range fedProxyHeaders {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(federation.HeaderNode, s.fed.Self())
	req.Header.Set(federation.HeaderForwardedFrom, s.fed.Self())
	resp, err := s.fedClient.Do(req)
	if err != nil {
		s.fed.NoteProxyError()
		w.Header().Set("Retry-After", "1")
		writeV2Error(w, http.StatusServiceUnavailable, CodeUnavailable,
			fmt.Sprintf("proxy to owner node %q failed: %v", owner, err), true)
		return
	}
	defer resp.Body.Close()
	s.fed.MarkSeen(owner)
	for _, h := range fedResponseHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(federation.HeaderNode, owner)
	w.WriteHeader(resp.StatusCode)
	if !stream {
		_, _ = io.Copy(w, resp.Body)
		return
	}
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
