// Command gangsimd is the persistent simulation service: a durable,
// crash-resumable job queue behind an HTTP/JSON API.
//
//	gangsimd -dir ./state -addr 127.0.0.1:8080
//
// Submit work, watch it, and read results:
//
//	curl -s -X POST localhost:8080/jobs -d '{"kind":"run","spec":{...}}'
//	curl -s localhost:8080/jobs
//	curl -s localhost:8080/jobs/j000000
//	curl -s localhost:8080/metrics
//	curl -sN localhost:8080/events
//	curl -s 'localhost:8080/events?run=j000000&from=10m&to=20m&node=2'
//
// A run submitted with "events":true has its event history persisted to
// the binary trace store (-store, default <dir>/store), and only there:
// GET /jobs/{id} fills the events into the run's result document at read
// time, and /events?run= serves a bounded range query against the
// store's block index.
//
// Every accepted job is journaled (fsync'd) before the HTTP response, so
// kill -9 loses nothing: restart with the same -dir and unfinished work
// re-dispatches while finished runs keep their results. Each of the
// -workers holds the job it leased until the run's verdict: a lease has no
// expiry, a panicking run or a result the journal cannot hold fails its
// attempt at once, and only a dead process or a failing disk leaves a
// lease unsettled, which the restart reverts without charging an attempt. SIGINT/SIGTERM drains gracefully — intake stops,
// in-flight runs get -drain-grace to finish, leases are handed back, the
// journal is compacted — and a second signal forces immediate exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/drain"
	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		dir         = flag.String("dir", "gangsimd.state", "durable state directory (journal + checkpoint)")
		workers     = flag.Int("workers", 0, "concurrent simulation runs (0 = one per CPU)")
		maxAttempts = flag.Int("max-attempts", 0, "failed attempts before a job dead-letters (0 = default 5)")
		retryBase   = flag.Duration("retry-base", 0, "base retry backoff (0 = default 500ms)")
		retryCap    = flag.Duration("retry-cap", 0, "max retry backoff (0 = default 30s)")
		ckEvery     = flag.Int("checkpoint-every", 0, "journal records between compactions (0 = default 1024)")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight runs before cancelling them")
		noSync      = flag.Bool("no-sync", false, "skip per-record fsync (benchmarks only: crashes may lose acknowledged jobs)")
		seed        = flag.Int64("seed", 0, "retry-jitter seed (0 = default 1)")
		storeDir    = flag.String("store", "", "binary trace store directory for event-capturing runs (default <dir>/store)")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("gangsimd: ")

	s, err := serve.Start(serve.Config{
		Dir:             *dir,
		Addr:            *addr,
		Workers:         *workers,
		MaxAttempts:     *maxAttempts,
		RetryBase:       *retryBase,
		RetryCap:        *retryCap,
		CheckpointEvery: *ckEvery,
		NoSync:          *noSync,
		Seed:            *seed,
		StoreDir:        *storeDir,
		Logf:            log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gangsimd:", err)
		os.Exit(1)
	}

	ctx, stop := drain.Context(context.Background())
	<-ctx.Done()

	grace, cancel := context.WithTimeout(context.Background(), *drainGrace)
	err = s.Drain(grace)
	cancel()
	stop()
	if err != nil {
		log.Printf("drain: %v", err)
		os.Exit(1)
	}
}
