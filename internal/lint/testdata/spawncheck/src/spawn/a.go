// Fixture: goroutine shutdown paths — every `go` statement needs a
// threaded ctx, a channel operation, or a WaitGroup registration.
package spawn

import (
	"context"
	"sync"
)

func work() {}

func run() error { return nil }

func runCtx(ctx context.Context) { <-ctx.Done() }

func pump(ch chan int) {
	for range ch {
	}
}

func spawnBad() {
	go func() { // want `no shutdown path`
		work()
	}()
	go work() // want `receives no context or signalling argument`
}

func spawnGood(ctx context.Context, done chan struct{}) {
	// Waiting on a channel is a shutdown path.
	go func() {
		<-done
	}()
	// The errc <- f() completion idiom: the spawner joins on the send.
	errc := make(chan error, 1)
	go func() { errc <- run() }()
	// Using the threaded ctx in the body.
	go func() {
		<-ctx.Done()
	}()
	// go f(args) form: a context argument carries the cancellation.
	go runCtx(ctx)
	// ... and so does a channel-ish argument.
	ch := make(chan int)
	go pump(ch)
	close(ch)
	<-errc
}

func spawnWG(wg *sync.WaitGroup) {
	wg.Add(1)
	// Registering with a WaitGroup is a join path.
	go func() {
		defer wg.Done()
		work()
	}()
}

func spawnClose(ch chan int) {
	go func() {
		defer close(ch)
		work()
	}()
}

// serveHTTP is drugtreed's HTTP listener with its error channel
// dropped (cmd/drugtreed/main.go): the goroutine logs and exits on its
// own, but nothing can stop it or wait for it. No test runs main, so
// only spawncheck sees it.
func serveHTTP(listen func() error, logf func(error)) {
	go func() { // want `no shutdown path`
		if err := listen(); err != nil {
			logf(err)
		}
	}()
}
