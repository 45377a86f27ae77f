package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"drugtree/internal/admission"
	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/mobile"
	"drugtree/internal/netsim"
	"drugtree/internal/phylo"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, _ := testServerEngine(t)
	return srv
}

// testServerEngine is testServer that also returns the engine it serves.
func testServerEngine(t *testing.T) (*httptest.Server, *core.Engine) {
	t.Helper()
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 2
	gen.ProteinsPerFamily = 6
	gen.NumLigands = 8
	ds, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(db, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(eng))
	t.Cleanup(srv.Close)
	return srv, eng
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	return resp, b.String()
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != 200 || !strings.HasPrefix(body, "ok\n") ||
		!strings.Contains(body, "\ntree_unplaced_proteins 0\n") || !strings.Contains(body, "\ntree_orphaned_leaves 0\n") {
		t.Fatalf("healthz = %d %q", resp.StatusCode, body)
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/query?q="+
		"SELECT+family,+COUNT(*)+AS+n+FROM+proteins+GROUP+BY+family+ORDER+BY+family")
	if resp.StatusCode != 200 {
		t.Fatalf("query status = %d: %s", resp.StatusCode, body)
	}
	var p queryPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(p.Rows) != 2 || p.Columns[0] != "family" {
		t.Fatalf("payload = %+v", p)
	}
	if p.Rows[0][0] != "FAM00" || p.Rows[0][1] != "6" {
		t.Fatalf("rows = %v", p.Rows)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv := testServer(t)
	resp, _ := get(t, srv.URL+"/query")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing q = %d", resp.StatusCode)
	}
	resp, _ = get(t, srv.URL+"/query?q=SELECT+*+FROM+nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query = %d", resp.StatusCode)
	}
}

func TestTreeEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/tree?budget=5")
	if resp.StatusCode != 200 {
		t.Fatalf("tree status = %d", resp.StatusCode)
	}
	var nodes []mobile.WireNode
	if err := json.Unmarshal([]byte(body), &nodes); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(nodes) == 0 || len(nodes) > 5 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	resp, _ = get(t, srv.URL+"/tree?node=missing")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing node = %d", resp.StatusCode)
	}
}

// TestTreeRecordsHoldTreeFacts holds GET /tree's records to protocol
// rev 4: each node's ParentPre is its tree parent, even at the focus,
// there is no Collapsed key, and the view's root — the one node whose
// parent is not in the view — is the focus, listed first.
func TestTreeRecordsHoldTreeFacts(t *testing.T) {
	srv, eng := testServerEngine(t)
	tr := eng.Tree()
	for _, focus := range []string{tr.Node(tr.Root()).Name, tr.Node(tr.Node(tr.Root()).Children[0]).Name} {
		resp, body := get(t, srv.URL+"/tree?budget=7&node="+focus)
		if resp.StatusCode != 200 {
			t.Fatalf("tree status = %d: %s", resp.StatusCode, body)
		}
		var raw []map[string]any
		var nodes []mobile.WireNode
		if err := json.Unmarshal([]byte(body), &raw); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if err := json.Unmarshal([]byte(body), &nodes); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		held := map[int64]bool{}
		for i, n := range nodes {
			if _, ok := raw[i]["Collapsed"]; ok {
				t.Errorf("node %d carries a Collapsed key: %s", n.Pre, body)
			}
			held[n.Pre] = true
		}
		for i, n := range nodes {
			if want := int64(tr.Node(phylo.NodeID(n.Pre)).Parent); n.ParentPre != want {
				t.Errorf("focus %s: node %d has ParentPre %d, its tree parent is %d", focus, n.Pre, n.ParentPre, want)
			}
			if !held[n.ParentPre] && (i != 0 || n.Name != focus) {
				t.Errorf("focus %s: node %d at index %d has its parent outside the view", focus, n.Pre, i)
			}
		}
	}
}

// TestTreeBudgetBound holds GET /tree to the mobile protocol's budget
// range: mobile.MaxBudget is served, one more is a 400.
func TestTreeBudgetBound(t *testing.T) {
	srv := testServer(t)
	for budget, want := range map[int]int{mobile.MaxBudget: http.StatusOK, mobile.MaxBudget + 1: http.StatusBadRequest} {
		if resp, body := get(t, srv.URL+"/tree?budget="+strconv.Itoa(budget)); resp.StatusCode != want {
			t.Errorf("budget %d = %d, want %d: %s", budget, resp.StatusCode, want, body)
		}
	}
}

func TestSubtreeEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/subtree?node=DT00000")
	if resp.StatusCode != 200 {
		t.Fatalf("subtree status = %d: %s", resp.StatusCode, body)
	}
	var sum core.ActivitySummary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if sum.Proteins != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	resp, _ = get(t, srv.URL+"/subtree")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing node = %d", resp.StatusCode)
	}
}

func TestBreadcrumbsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, body := get(t, srv.URL+"/breadcrumbs?node=DT00003")
	if resp.StatusCode != 200 {
		t.Fatalf("breadcrumbs status = %d: %s", resp.StatusCode, body)
	}
	var crumbs []core.NodeView
	if err := json.Unmarshal([]byte(body), &crumbs); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(crumbs) < 2 || crumbs[len(crumbs)-1].Name != "DT00003" {
		t.Fatalf("crumbs = %+v", crumbs)
	}
	resp, _ = get(t, srv.URL+"/breadcrumbs")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing node = %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	get(t, srv.URL+"/query?q=SELECT+COUNT(*)+FROM+proteins")
	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != 200 || !strings.Contains(body, "query.count") ||
		!regexp.MustCompile(`(?m)^gauge +drugtree_tree_unplaced_proteins +0$`).MatchString(body) {
		t.Fatalf("metrics = %d\n%s", resp.StatusCode, body)
	}
}

// testServerWithEngine is like testServer but exposes the engine (to
// inspect metrics / hold the admission limiter) and lets the test
// shape the engine config and rate limiter.
func testServerWithEngine(t *testing.T, cfg core.Config, rate *admission.RateLimiter) (*httptest.Server, *core.Engine) {
	t.Helper()
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 2
	gen.ProteinsPerFamily = 6
	gen.NumLigands = 8
	ds, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
	if _, err := integrate.NewImporter(db, bundle).ImportAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newAPI(eng, rate))
	t.Cleanup(srv.Close)
	return srv, eng
}

// TestParamBoundsRejectBeforeEngineWork drives oversized and malformed
// parameters through every endpoint and asserts they bounce with a 4xx
// without ever reaching the engine's query path.
func TestParamBoundsRejectBeforeEngineWork(t *testing.T) {
	srv, eng := testServerWithEngine(t, core.DefaultConfig(), nil)
	bigQ := strings.Repeat("x", maxQueryBytes+1)
	bigNode := strings.Repeat("n", maxNodeBytes+1)
	badUTF8 := "%ff%fe"
	cases := []struct {
		name string
		path string
		want int
	}{
		{"oversized query", "/query?q=" + bigQ, http.StatusRequestEntityTooLarge},
		{"non-utf8 query", "/query?q=" + badUTF8, http.StatusBadRequest},
		{"oversized tree node", "/tree?node=" + bigNode, http.StatusRequestEntityTooLarge},
		{"non-utf8 tree node", "/tree?node=" + badUTF8, http.StatusBadRequest},
		{"malformed budget", "/tree?budget=abc", http.StatusBadRequest},
		{"negative budget", "/tree?budget=-5", http.StatusBadRequest},
		{"oversized budget", "/tree?budget=2000000", http.StatusBadRequest},
		{"oversized subtree node", "/subtree?node=" + bigNode, http.StatusRequestEntityTooLarge},
		{"non-utf8 subtree node", "/subtree?node=" + badUTF8, http.StatusBadRequest},
		{"oversized breadcrumbs node", "/breadcrumbs?node=" + bigNode, http.StatusRequestEntityTooLarge},
		{"non-utf8 breadcrumbs node", "/breadcrumbs?node=" + badUTF8, http.StatusBadRequest},
	}
	before := eng.Metrics.Counter("query.count").Value()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := get(t, srv.URL+tc.path)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s = %d, want %d: %s", tc.path, resp.StatusCode, tc.want, body)
			}
		})
	}
	if after := eng.Metrics.Counter("query.count").Value(); after != before {
		t.Fatalf("rejected requests reached the engine: query.count %d -> %d", before, after)
	}
}

func TestQueryShedMapsTo429(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 0}
	srv, eng := testServerWithEngine(t, cfg, nil)
	release, err := eng.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, _ := get(t, srv.URL+"/query?q=SELECT+COUNT(*)+FROM+proteins")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed query = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if eng.Metrics.Counter("query.shed").Value() == 0 {
		t.Fatal("query.shed not counted")
	}
}

// TestNodeRoutesShedMapTo429: /breadcrumbs and /subtree run a query
// behind the engine's admission gate, so a shed answers 429 with
// Retry-After as /query does, while an unknown node — resolved before
// any query — still answers 404.
func TestNodeRoutesShedMapTo429(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Admission = &admission.Config{MaxConcurrency: 1, MaxQueue: 0}
	srv, eng := testServerWithEngine(t, cfg, nil)
	release, err := eng.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	root := url.QueryEscape(eng.Root().Name)
	for _, route := range []string{"/breadcrumbs", "/subtree"} {
		resp, body := get(t, srv.URL+route+"?node="+root)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shed %s = %d (%s), want 429", route, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s: 429 without Retry-After header", route)
		}
		if resp, _ := get(t, srv.URL+route+"?node=no-such-node"); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on an unknown node = %d, want 404", route, resp.StatusCode)
		}
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	rate := admission.NewRateLimiter(admission.RateConfig{QPS: 0.001, Burst: 1})
	srv, eng := testServerWithEngine(t, core.DefaultConfig(), rate)
	if resp, _ := get(t, srv.URL+"/tree"); resp.StatusCode != 200 {
		t.Fatalf("first request = %d", resp.StatusCode)
	}
	resp, _ := get(t, srv.URL+"/tree")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want >= 1 second", ra)
	}
	if eng.Metrics.Counter("http.rate_limited").Value() == 0 {
		t.Fatal("http.rate_limited not counted")
	}
	// Liveness and metrics stay reachable while the API sheds.
	if resp, _ := get(t, srv.URL+"/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz rate-limited: %d", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/metrics"); resp.StatusCode != 200 {
		t.Fatalf("metrics rate-limited: %d", resp.StatusCode)
	}
}

// TestHealthSourcesSharded pins that /health/sources reports sources
// only: Config.Shards is a no-op, not a source, and adds no entries.
func TestHealthSourcesSharded(t *testing.T) {
	gen := datagen.DefaultConfig()
	gen.NumFamilies = 2
	gen.ProteinsPerFamily = 6
	gen.NumLigands = 8
	ds, err := datagen.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	bundle := source.NewBundle(ds, netsim.ProfileLAN, 1, true)
	im := integrate.NewImporter(db, bundle)
	if _, err := im.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Shards = 3
	eng, err := core.New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	eng.AttachHealth(im.Health)
	srv := httptest.NewServer(newMux(eng))
	t.Cleanup(srv.Close)

	resp, body := get(t, srv.URL+"/health/sources")
	if resp.StatusCode != 200 {
		t.Fatalf("/health/sources = %d %q", resp.StatusCode, body)
	}
	var entries []struct {
		Source string `json:"source"`
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	if len(entries) == 0 || len(entries) != len(im.Health()) {
		t.Fatalf("/health/sources lists %d entries, the importer %d sources: %s", len(entries), len(im.Health()), body)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Source, "shard-") {
			t.Fatalf("/health/sources lists a shard: %s", body)
		}
	}
}
