package serve

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ListenAndServe is the lifecycle of both serving binaries: it serves
// handler on addr under the tier's timeouts (a stalled or abusive client
// cannot pin a connection), calls onHUP for every SIGHUP — hydra-serve
// hot-swaps its bundle there, hydra-router re-probes its shards — and on
// SIGINT/SIGTERM closes the listener, gives in-flight requests drain to
// finish, and returns nil. A listener failure or an incomplete drain is
// the returned error.
func ListenAndServe(addr string, handler http.Handler, drain time.Duration, onHUP func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Batches fan out over the pool; a minute covers the largest
		// legitimate batch on a loaded box with headroom.
		WriteTimeout: 60 * time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	for {
		select {
		case err := <-errCh:
			return err
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				onHUP()
				continue
			}
			fmt.Fprintf(os.Stderr, "%s: draining (up to %s) …\n", sig, drain)
			ctx, cancel := context.WithTimeout(context.Background(), drain)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				return fmt.Errorf("drain incomplete after %s: %v", drain, err)
			}
			return nil
		}
	}
}
