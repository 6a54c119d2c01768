package server

import (
	"errors"
	"math"
	"net/http"
	"strings"

	"github.com/stslib/sts/api"
	"github.com/stslib/sts/internal/geo"
	"github.com/stslib/sts/internal/model"
	"github.com/stslib/sts/internal/stream"
)

// handleAppend extends one resident trajectory with strictly-later samples
// (POST /v1/trajectories/{id}:append — the custom-method suffix keeps the
// route distinct from the whole-trajectory PUT) and evaluates every
// standing query against the grown trajectory before answering, so the
// response can report how many alerts the append fired.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) error {
	raw := r.PathValue("idop")
	// Split on the LAST colon: the operation suffix cannot contain one,
	// but a trajectory ID may.
	cut := strings.LastIndex(raw, ":")
	if cut < 0 || raw[cut+1:] != "append" {
		return httpErrorf(http.StatusNotFound, "unknown trajectory operation in %q (want {id}:append)", raw)
	}
	id := raw[:cut]
	if id == "" {
		return httpErrorf(http.StatusBadRequest, "append needs a trajectory id before :append")
	}
	var req api.AppendRequest
	if err := s.readJSON(w, r, &req); err != nil {
		return err
	}
	if len(req.Samples) == 0 {
		return httpErrorf(http.StatusBadRequest, "append to %q has no samples", id)
	}
	tail := make([]model.Sample, len(req.Samples))
	for i, sm := range req.Samples {
		tail[i] = model.Sample{T: sm[0], Loc: geo.Point{X: sm[1], Y: sm[2]}}
	}
	if _, err := s.eng.Append(id, tail); err != nil {
		return mapEngineErr(err)
	}
	grown, ok := s.eng.Get(id)
	if !ok {
		// Only reachable if a concurrent DELETE won the race after our
		// append landed; the append itself succeeded.
		return httpErrorf(http.StatusConflict, "trajectory %q removed concurrently", id)
	}
	alerts, err := s.watches.OnAppend(r.Context(), grown, len(tail))
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, api.AppendResponse{
		ID:         id,
		N:          len(grown.Samples),
		CorpusSize: s.eng.Len(),
		Alerts:     len(alerts),
	})
}

// handleWatchPut upserts one standing query. The path name is
// authoritative; a body name, when present, must agree.
func (s *Server) handleWatchPut(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	var wire api.Watch
	if err := s.readJSON(w, r, &wire); err != nil {
		return err
	}
	if wire.Name != "" && wire.Name != name {
		return httpErrorf(http.StatusBadRequest, "body name %q does not match path name %q", wire.Name, name)
	}
	if math.IsNaN(wire.Theta) {
		return httpErrorf(http.StatusBadRequest, "watch %q theta is not a number", name)
	}
	err := s.watches.Set(stream.Watch{
		Name:            name,
		Members:         wire.Members,
		Theta:           wire.Theta,
		Webhook:         wire.Webhook,
		DebounceSeconds: wire.DebounceSeconds,
	})
	if err != nil {
		return httpErrorf(http.StatusBadRequest, "%v", err)
	}
	wire.Name = name
	return writeJSON(w, http.StatusOK, wire)
}

func (s *Server) handleWatchDelete(w http.ResponseWriter, r *http.Request) error {
	if err := s.watches.Delete(r.PathValue("name")); err != nil {
		if errors.Is(err, stream.ErrNotFound) {
			return httpErrorf(http.StatusNotFound, "%v", err)
		}
		return err
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// handleWatchList lists every standing query with its evaluation and
// delivery counters.
func (s *Server) handleWatchList(w http.ResponseWriter, r *http.Request) error {
	watches := s.watches.List()
	resp := api.WatchListResponse{Watches: make([]api.WatchStats, len(watches)), Count: len(watches)}
	for i, ws := range watches {
		resp.Watches[i] = api.WatchStats{
			Name:         ws.Name,
			Members:      ws.Members,
			Theta:        ws.Theta,
			Webhook:      ws.Webhook,
			Evals:        ws.Evals,
			Pairs:        ws.Pairs,
			Subthreshold: ws.Subthreshold,
			Alerts:       ws.Alerts,
			Suppressed:   ws.Suppressed,
			Delivered:    ws.Delivered,
			Retries:      ws.Retries,
			DeadLettered: ws.DeadLettered,
			Dropped:      ws.Dropped,
			QueueLen:     ws.QueueLen,
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}
