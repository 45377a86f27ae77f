package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"unicode/utf8"

	"drugtree/internal/admission"
	"drugtree/internal/core"
	"drugtree/internal/mobile"
	"drugtree/internal/store"
)

// queryPayload is the JSON shape of /query responses.
type queryPayload struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Plan    string     `json:"plan,omitempty"`
}

// Request-parameter bounds, enforced before any engine work so a
// hostile or broken client cannot burn parse/plan cycles.
const (
	maxQueryBytes = 8 << 10 // DTQL text
	maxNodeBytes  = 256     // node names
)

// checkParam rejects oversized or non-UTF-8 parameter values. It
// reports whether the request may proceed, having written the 4xx
// response otherwise.
func checkParam(w http.ResponseWriter, name, val string, maxBytes int) bool {
	if len(val) > maxBytes {
		http.Error(w, fmt.Sprintf("%s parameter exceeds %d bytes", name, maxBytes),
			http.StatusRequestEntityTooLarge)
		return false
	}
	if !utf8.ValidString(val) {
		http.Error(w, fmt.Sprintf("%s parameter is not valid UTF-8", name), http.StatusBadRequest)
		return false
	}
	return true
}

// retryAfterSeconds renders a duration as a Retry-After header value
// (whole seconds, minimum 1 so clients never busy-loop).
func retryAfterSeconds(hint float64) string {
	s := int(math.Ceil(hint))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// writeError answers a failed call with status, or — when admission
// shed it — with 429 and Retry-After.
func writeError(w http.ResponseWriter, err error, status int) {
	if !admission.IsShed(err) {
		http.Error(w, err.Error(), status)
		return
	}
	hint := admission.RetryAfterHint(err, 0)
	w.Header().Set("Retry-After", retryAfterSeconds(hint.Seconds()))
	http.Error(w, "server overloaded, retry later", http.StatusTooManyRequests)
}

// withRateLimit wraps next with a per-client (remote host) token
// bucket. Liveness and metrics endpoints stay exempt so monitoring
// keeps working while the API sheds.
func withRateLimit(eng *core.Engine, rate *admission.RateLimiter, next http.Handler) http.Handler {
	if rate == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		client := r.RemoteAddr
		if host, _, err := net.SplitHostPort(client); err == nil {
			client = host
		}
		if err := rate.Allow(client); err != nil {
			eng.Metrics.Counter("http.rate_limited").Inc()
			writeError(w, err, http.StatusTooManyRequests)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// newAPI assembles the full HTTP handler: routes plus overload
// middleware.
func newAPI(eng *core.Engine, rate *admission.RateLimiter) http.Handler {
	return withRateLimit(eng, rate, newMux(eng))
}

// newMux builds the HTTP API over an engine. Split from main so the
// handlers are testable with httptest.
func newMux(eng *core.Engine) *http.ServeMux {
	mux := http.NewServeMux()
	// Both report the proteins the tree has not placed and the leaves
	// left naming a deleted protein (Engine.TreePlacement).
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		unplaced, orphaned := eng.TreePlacement()
		fmt.Fprintf(w, "ok\ntree_unplaced_proteins %d\ntree_orphaned_leaves %d\n", unplaced, orphaned)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		unplaced, orphaned := eng.TreePlacement()
		fmt.Fprint(w, eng.Metrics.Dump())
		fmt.Fprintf(w, "gauge   %-40s %d\ngauge   %-40s %d\n",
			"drugtree_tree_unplaced_proteins", unplaced, "drugtree_tree_orphaned_leaves", orphaned)
	})
	mux.HandleFunc("GET /health/sources", func(w http.ResponseWriter, r *http.Request) {
		type sourceHealthPayload struct {
			Source       string `json:"source"`
			Status       string `json:"status"`
			Stale        bool   `json:"stale"`
			Rows         int    `json:"rows"`
			AgeMs        int64  `json:"age_ms"`
			LastError    string `json:"last_error,omitempty"`
			BreakerState string `json:"breaker_state,omitempty"`
			BreakerTrips int64  `json:"breaker_trips,omitempty"`
		}
		out := []sourceHealthPayload{}
		degraded := false
		for _, h := range eng.SourceHealth() {
			out = append(out, sourceHealthPayload{
				Source:       h.Source,
				Status:       h.Status.String(),
				Stale:        h.Stale,
				Rows:         h.Rows,
				AgeMs:        h.Age.Milliseconds(),
				LastError:    h.LastError,
				BreakerState: h.BreakerState,
				BreakerTrips: h.BreakerTrips,
			})
			if h.Stale {
				degraded = true
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if degraded {
			// 200 would hide staleness from load balancers; 207-style
			// signalling keeps the endpoint scrapeable but visible.
			w.WriteHeader(http.StatusMultiStatus)
		}
		json.NewEncoder(w).Encode(out)
	})
	// GET /tree?node=&budget= answers mobile.BuildViewport's view of the
	// node (the root by default) as a JSON array of WireNodes in
	// preorder. Each record holds tree facts only: ParentPre is the tree
	// parent, −1 at the tree root alone. The focus comes first and is
	// the one node whose parent is not in the array; an internal node
	// that no node in the array names as parent is collapsed and stands
	// for its LeafCount leaves.
	mux.HandleFunc("GET /tree", func(w http.ResponseWriter, r *http.Request) {
		node := r.URL.Query().Get("node")
		if !checkParam(w, "node", node, maxNodeBytes) {
			return
		}
		if node == "" {
			node = eng.Root().Name
		}
		budget := 100
		if b := r.URL.Query().Get("budget"); b != "" {
			n, err := strconv.Atoi(b)
			if err != nil || n <= 0 || n > mobile.MaxBudget {
				http.Error(w, fmt.Sprintf("budget must be an integer in [1, %d]", mobile.MaxBudget),
					http.StatusBadRequest)
				return
			}
			budget = n
		}
		id, err := eng.NodeByName(node)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		nodes := mobile.BuildViewport(eng, id, budget)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(nodes)
	})
	mux.HandleFunc("GET /query", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		if q == "" {
			http.Error(w, "missing q parameter", http.StatusBadRequest)
			return
		}
		if !checkParam(w, "q", q, maxQueryBytes) {
			return
		}
		res, err := eng.QueryColumns(r.Context(), q)
		if err != nil {
			writeError(w, err, http.StatusBadRequest)
			return
		}
		p := queryPayload{Columns: res.Columns, Plan: res.Plan}
		for i := 0; res.Batch != nil && i < res.Batch.Rows; i++ {
			cells := make([]string, len(res.Batch.Cols))
			for c := range res.Batch.Cols {
				if v := res.Batch.Cols[c].Value(i); v.K == store.KindString {
					cells[c] = v.S
				} else {
					cells[c] = v.String()
				}
			}
			p.Rows = append(p.Rows, cells)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p)
	})
	mux.HandleFunc("GET /breadcrumbs", func(w http.ResponseWriter, r *http.Request) {
		node := r.URL.Query().Get("node")
		if node == "" {
			http.Error(w, "missing node parameter", http.StatusBadRequest)
			return
		}
		if !checkParam(w, "node", node, maxNodeBytes) {
			return
		}
		crumbs, err := eng.Breadcrumbs(r.Context(), node)
		if err != nil {
			writeError(w, err, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(crumbs)
	})
	mux.HandleFunc("GET /subtree", func(w http.ResponseWriter, r *http.Request) {
		node := r.URL.Query().Get("node")
		if node == "" {
			http.Error(w, "missing node parameter", http.StatusBadRequest)
			return
		}
		if !checkParam(w, "node", node, maxNodeBytes) {
			return
		}
		sum, err := eng.SubtreeActivity(r.Context(), node)
		if err != nil {
			writeError(w, err, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(sum)
	})
	return mux
}
