// drugtreed is the DrugTree server: it loads (or generates) an
// integrated dataset, builds the phylogenetic overlay, and serves
// both the binary mobile wire protocol and an HTTP JSON API.
//
// Usage:
//
//	drugtreed -dir data -listen :7047 -http :8047
//	drugtreed -generate -families 8 -per-family 20   # ephemeral demo
//
// Overload protection (DESIGN.md §7): -max-concurrency/-max-queue
// bound the engine's admission limiter (shed queries answer 429 +
// Retry-After over HTTP, RETRY over the wire), -max-sessions caps
// concurrent wire sessions, -client-qps token-buckets each client,
// and -drain-timeout bounds the ordered graceful shutdown (HTTP →
// wire sessions → engine) on SIGINT/SIGTERM.
//
// Durability (DESIGN §10): -wal-sync picks the WAL fsync policy —
// `always` acknowledges no write before it is on disk, `interval`
// (default) group-commits every -wal-sync-every records, `off` leaves
// flushing to the OS. The store is the only durable state.
//
// HTTP endpoints:
//
//	GET  /healthz                   liveness
//	GET  /health/sources            per-source freshness JSON (207 when degraded)
//	GET  /tree?node=NAME&budget=N   viewport JSON
//	GET  /query?q=DTQL              query results JSON
//	GET  /metrics                   engine counters (text)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"drugtree/internal/admission"
	"drugtree/internal/core"
	"drugtree/internal/datagen"
	"drugtree/internal/integrate"
	"drugtree/internal/mobile"
	"drugtree/internal/netsim"
	"drugtree/internal/source"
	"drugtree/internal/store"
)

func main() {
	dir := flag.String("dir", "", "database directory (initialized with `drugtree init`)")
	generate := flag.Bool("generate", false, "generate an ephemeral in-memory dataset instead of -dir")
	families := flag.Int("families", 8, "families for -generate")
	perFamily := flag.Int("per-family", 20, "proteins per family for -generate")
	ligands := flag.Int("ligands", 50, "ligands for -generate")
	seed := flag.Int64("seed", 1, "seed for -generate")
	listen := flag.String("listen", ":7047", "wire-protocol listen address")
	httpAddr := flag.String("http", ":8047", "HTTP listen address")
	maxConc := flag.Int("max-concurrency", 8, "concurrent queries admitted before shedding (0 disables admission control)")
	maxQueue := flag.Int("max-queue", 64, "queries waiting for admission before shedding")
	maxSessions := flag.Int("max-sessions", 256, "concurrent wire-protocol sessions (0 = unlimited)")
	clientQPS := flag.Float64("client-qps", 25, "per-client request rate before shedding (0 disables rate limiting)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound for in-flight work")
	walSync := flag.String("wal-sync", "interval", "WAL fsync policy: always (no acknowledged write lost on crash), interval (group-commit every -wal-sync-every records), off (OS decides; Close/Checkpoint still sync)")
	walSyncEvery := flag.Int("wal-sync-every", store.DefaultSyncEvery, "records between group-commit fsyncs for -wal-sync=interval")
	flag.Parse()

	syncPolicy, err := store.ParseSyncPolicy(*walSync)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng, cleanup, err := buildEngine(*dir, *generate, *seed, *families, *perFamily, *ligands, *maxConc, *maxQueue, syncPolicy, *walSyncEvery)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()

	server := mobile.NewServer(eng)
	server.MaxSessions = *maxSessions
	server.DrainTimeout = *drainTimeout
	var rate *admission.RateLimiter
	if *clientQPS > 0 {
		rate = admission.NewRateLimiter(admission.RateConfig{QPS: *clientQPS})
		server.Rate = rate
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("wire protocol on %s", l.Addr())
	wireDone := make(chan struct{})
	go func() {
		defer close(wireDone)
		if err := server.Serve(ctx, l); err != nil && ctx.Err() == nil {
			log.Printf("wire server stopped: %v", err)
		}
	}()

	httpSrv := &http.Server{Addr: *httpAddr, Handler: newAPI(eng, rate)}
	log.Printf("HTTP API on %s", *httpAddr)
	httpDone := make(chan error, 1)
	go func() {
		httpDone <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-httpDone:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, let in-flight work finish
	// (bounded by -drain-timeout), then drain the engine's limiter.
	log.Printf("shutting down: draining in-flight work (bound %v)", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	<-wireDone // Serve drains the wire sessions itself
	if err := eng.Drain(shutdownCtx); err != nil {
		log.Printf("engine drain: %v", err)
	}
	log.Printf("shutdown complete")
}

func buildEngine(dir string, generate bool, seed int64, families, perFamily, ligands, maxConc, maxQueue int, walSync store.SyncPolicy, walSyncEvery int) (*core.Engine, func(), error) {
	cfg := core.DefaultConfig()
	// The WAL fsync policy is set on the store at open time (DESIGN §10).
	opts := store.Options{Sync: walSync, SyncEvery: walSyncEvery}
	var db *store.DB
	var importer *integrate.Importer
	var err error
	switch {
	case generate:
		db, err = store.OpenWith("", opts)
		if err != nil {
			return nil, nil, err
		}
		gen := datagen.DefaultConfig()
		gen.Seed = seed
		gen.NumFamilies = families
		gen.ProteinsPerFamily = perFamily
		gen.NumLigands = ligands
		ds, err := datagen.Generate(gen)
		if err != nil {
			return nil, nil, err
		}
		bundle := source.NewBundle(ds, netsim.Profile4G, seed, true)
		importer = integrate.NewImporter(db, bundle)
		importer.EnableResilience(integrate.DefaultResilience())
		if _, err := importer.Sync(context.Background()); err != nil {
			return nil, nil, err
		}
	case dir != "":
		db, err = store.OpenWith(dir, opts)
		if err != nil {
			return nil, nil, err
		}
	default:
		fmt.Fprintln(os.Stderr, "drugtreed: need -dir or -generate")
		os.Exit(2)
	}
	// The server is long-lived and read-mostly: repeated dashboard
	// statements benefit from the statement cache (experiment T6).
	cfg.QueryCacheEntries = 256
	if maxConc > 0 {
		// Gate queries behind a bounded limiter so overload sheds with
		// retry hints instead of collapsing latency (experiment T9).
		cfg.Admission = &admission.Config{MaxConcurrency: maxConc, MaxQueue: maxQueue}
	}
	eng, err := core.New(db, cfg)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	if importer != nil {
		eng.AttachHealth(importer.Health)
	}
	return eng, func() { eng.Close(); db.Close() }, nil
}
