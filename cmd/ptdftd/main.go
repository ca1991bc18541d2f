// Command ptdftd is the long-running rt-TDDFT job daemon: an HTTP/JSON
// API (internal/server) over a bounded worker pool that multiplexes
// queued simulation jobs, with a shared ground-state SCF cache,
// streaming observables, preemption with automatic resume, and durable
// job records that survive restarts.
//
//	ptdftd -addr :8321 -workers 4 -dir /var/lib/ptdftd
//
//	curl -X POST localhost:8321/jobs -d '{"cells":[1,1,1],"ecut":4,"steps":10,"kick":0.02}'
//	curl localhost:8321/jobs/j000001
//	curl -N localhost:8321/jobs/j000001/stream
//	curl -X POST localhost:8321/jobs/j000001/preempt
//	curl -X DELETE localhost:8321/jobs/j000001
//	curl localhost:8321/jobs/j000001/profile   # phase breakdown + comm accounting
//	curl localhost:8321/metrics                # Prometheus text exposition
//
// SIGINT/SIGTERM drains gracefully: running jobs finish their step in
// flight, checkpoint and go back to the queue, which stays on disk, and
// the next start on the same -dir resumes all of them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ptdft/internal/server"
)

func main() {
	addr := flag.String("addr", ":8321", "HTTP listen address")
	workers := flag.Int("workers", 2, "simulation jobs run concurrently")
	dir := flag.String("dir", "", "durable state directory (job records + checkpoints); empty = in-memory only")
	ckptEvery := flag.Int("ckptevery", 0, "periodic durable checkpoint every N steps while a job runs (0 = checkpoint on interruption only)")
	flag.Parse()
	if err := run(*addr, *workers, *dir, *ckptEvery); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr string, workers int, dir string, ckptEvery int) error {
	logf := func(format string, args ...any) {
		fmt.Printf("%s "+format+"\n", append([]any{time.Now().UTC().Format(time.RFC3339)}, args...)...)
	}
	srv, err := server.New(server.Config{
		Workers: workers, Dir: dir, CkptEvery: ckptEvery, Logf: logf,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() {
		logf("ptdftd listening on %s (%d workers); metrics at %s/metrics", addr, workers, addr)
		errc <- hs.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		logf("caught %v: draining (running jobs checkpoint after their step in flight)", s)
	}
	// Stop accepting connections first, then drain the pool; stream
	// clients are cut off by the HTTP shutdown deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("http shutdown: %v", err)
	}
	srv.Drain()
	return nil
}
