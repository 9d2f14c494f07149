package mqss

import (
	"context"
	"fmt"
	"io"
	"net/http"
)

// NewLocalClient returns the client for in-HPC accelerator-style
// submission: NewRemoteClient's client over a transport that calls h, the
// node's *Server or a handler wrapping it, in the caller's process. An
// in-HPC job passes the same decode, admission, idempotency, federation
// and trace code as a REST job, with no socket and no listener.
func NewLocalClient(h http.Handler) *Client {
	return &Client{path: PathHPC, baseURL: "http://hpc.local", // never dialled
		httpc: &http.Client{Transport: handlerTransport{h}}}
}

// handlerTransport serves each request by running the handler on a
// goroutine of its own. The response body is the read end of a pipe the
// handler writes into, so a watch stream arrives event by event. The
// handler's request context ends when it returns, when the caller's context
// ends, or when the caller closes the body, as a disconnect does over a
// socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithCancel(req.Context())
	pr, pw := io.Pipe()
	// After a clean return the pipe holds EOF, which CloseWithError keeps.
	context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
	w := &pipeWriter{header: http.Header{}, pw: pw, ready: make(chan struct{}),
		resp: http.Response{Request: req, ContentLength: -1, Body: pipeBody{pr, cancel}}}
	sreq := req.Clone(ctx)
	if sreq.Body == nil {
		sreq.Body = http.NoBody
	}
	go func() {
		defer cancel()
		t.h.ServeHTTP(w, sreq)
		w.WriteHeader(http.StatusOK) // a no-op once the handler wrote one
		pw.Close()
		sreq.Body.Close()
	}()
	select {
	case <-w.ready:
	case <-ctx.Done():
		select { // the handler's return ends ctx too, but only after ready
		case <-w.ready:
		default:
			return nil, ctx.Err()
		}
	}
	return &w.resp, nil
}

// pipeWriter is the handler's side of the exchange: the first WriteHeader,
// Write or Flush hands the caller the status and a copy of the header.
type pipeWriter struct {
	header http.Header
	pw     *io.PipeWriter
	resp   http.Response
	ready  chan struct{}
}

func (w *pipeWriter) Header() http.Header { return w.header }

func (w *pipeWriter) WriteHeader(code int) {
	if w.resp.StatusCode != 0 {
		return
	}
	w.resp.StatusCode, w.resp.Status = code, fmt.Sprintf("%d %s", code, http.StatusText(code))
	w.resp.Header = w.header.Clone()
	close(w.ready)
}

func (w *pipeWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

// Flush implements http.Flusher. The pipe holds no buffer: every Write has
// reached the reader when it returns.
func (w *pipeWriter) Flush() { w.WriteHeader(http.StatusOK) }

// pipeBody is the caller's response body; closing it ends the request.
type pipeBody struct {
	*io.PipeReader
	cancel context.CancelFunc
}

func (b pipeBody) Close() error {
	b.cancel()
	return b.PipeReader.Close()
}
