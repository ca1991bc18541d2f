// HTTP/JSON API:
//
//	POST   /jobs               submit a sim.Spec, returns the queued job
//	GET    /jobs               list all jobs (no samples)
//	GET    /jobs/{id}          one job with its trajectory samples
//	GET    /jobs/{id}/stream   live observables (Server-Sent Events)
//	POST   /jobs/{id}/preempt  checkpoint + requeue (automatic resume)
//	DELETE /jobs/{id}          cancel
//	GET    /jobs/{id}/profile  per-job phase breakdown (see metrics.go)
//	GET    /metrics            Prometheus text exposition (see metrics.go)
//
// Errors are typed JSON: {"error": {"code": "...", "message": "..."}}.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ptdft/internal/sim"
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = message
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Handler returns the API routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("POST /jobs/{id}/preempt", s.handlePreempt)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// maxSpecBytes bounds the POST /jobs body: a spec is a few hundred bytes,
// and an unbounded read would let one client exhaust the daemon's memory.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec sim.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large", fmt.Sprintf("spec larger than %d bytes", maxSpecBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("decoding spec: %v", err))
		return
	}
	v, err := s.Submit(spec)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "draining", err.Error())
		return
	case err != nil:
		// Validation failures: the spec parsed but describes no runnable
		// simulation.
		writeError(w, http.StatusUnprocessableEntity, "invalid_spec", err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, v)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]View{"jobs": s.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such job: "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handlePreempt(w http.ResponseWriter, r *http.Request) {
	err := s.Preempt(r.PathValue("id"))
	switch {
	case errors.Is(err, errNotFound):
		writeError(w, http.StatusNotFound, "not_found", "no such job: "+r.PathValue("id"))
	case errors.Is(err, errConflict):
		writeError(w, http.StatusConflict, "conflict", err.Error())
	case err != nil:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	default:
		v, _ := s.Get(r.PathValue("id"))
		writeJSON(w, http.StatusOK, v)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	err := s.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, errNotFound):
		writeError(w, http.StatusNotFound, "not_found", "no such job: "+r.PathValue("id"))
	case errors.Is(err, errConflict):
		writeError(w, http.StatusConflict, "conflict", err.Error())
	case err != nil:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	default:
		v, _ := s.Get(r.PathValue("id"))
		writeJSON(w, http.StatusOK, v)
	}
}
