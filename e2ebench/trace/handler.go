package trace

import (
	"io"
	"net/http"
)

// MarkPath is the traced server's phase-mark endpoint: GET
// MarkPath?name=<phase> starts a new phase and records the engine's
// counters. The decorator answers it itself; the wrapped server never
// sees it.
const MarkPath = "/debug/trace/mark"

// Handler decorates the server's http.Handler: every request becomes a
// root span carrying the client's request ID, and the span rides the
// request context down to the engine calls that take one.
type Handler struct {
	inner http.Handler
	t     *Tracer
	state func() *EngineState
}

// WrapHandler returns inner with a root span per request. state is read at
// every phase mark.
func WrapHandler(t *Tracer, inner http.Handler, state func() *EngineState) *Handler {
	return &Handler{inner: inner, t: t, state: state}
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == MarkPath {
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "mark needs ?name=", http.StatusBadRequest)
			return
		}
		h.t.Mark(name, h.state())
		w.WriteHeader(http.StatusNoContent)
		return
	}
	a := h.t.StartRequest(r.Header.Get(RequestIDHeader), LayerServer, "server.handler")
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r.WithContext(ContextWith(r.Context(), a)))
	a.AddBytes(body.n, cw.n)
	a.End()
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
