// Package sends exercises the goroutine channel-op contract: every
// send or receive inside a spawned body must be select-guarded,
// provably buffered, or released by a visible close.
package sends

import "context"

func process(ctx context.Context, w int) int { return w }

func use(int) {}

// Leaky sends on an unbuffered channel with no guard: when the
// consumer stops draining, every worker wedges.
func Leaky(ctx context.Context, work []int) <-chan int {
	out := make(chan int)
	for _, w := range work {
		w := w
		go func() {
			out <- process(ctx, w) // want `unguarded send to out`
		}()
	}
	return out
}

// Guarded races the send against cancellation: compliant.
func Guarded(ctx context.Context, work []int) <-chan int {
	out := make(chan int)
	for _, w := range work {
		w := w
		go func() {
			select {
			case out <- process(ctx, w):
			case <-ctx.Done():
			}
		}()
	}
	return out
}

// Buffered sizes the channel for one result per worker, so no send
// can block: compliant.
func Buffered(ctx context.Context, work []int) <-chan int {
	results := make(chan int, len(work))
	for _, w := range work {
		w := w
		go func() {
			results <- process(ctx, w)
		}()
	}
	return results
}

// Collect blocks a goroutine on a receive nothing guards: if the
// producer exits first, the goroutine leaks.
func Collect(resultc chan int) {
	go func() {
		v := <-resultc // want `unguarded receive from resultc`
		use(v)
	}()
}

// Fan ranges over a channel this file visibly closes: the range ends
// when the producer closes, so the consumer goroutine is compliant.
func Fan(work []int) {
	itemch := make(chan int)
	go func() {
		for v := range itemch {
			use(v)
		}
	}()
	for _, w := range work {
		itemch <- w
	}
	close(itemch)
}

// Loop ranges over a channel nothing ever closes: the goroutine can
// never end.
func Loop(tickch chan int) {
	go func() {
		for v := range tickch { // want `no visible close\(tickch\)`
			use(v)
		}
	}()
}

// ServeUntil is the daemon's shape: a listener goroutine reports its
// exit on done while the caller waits for that or for cancellation.
// Unbuffered, the send wedges once the caller has left on ctx.Done().
func ServeUntil(ctx context.Context, listen func() error) error {
	done := make(chan error)
	go func() {
		done <- listen() // want `unguarded send to done`
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ServeUntilBuffered gives the one send a slot: compliant.
func ServeUntilBuffered(ctx context.Context, listen func() error) error {
	done := make(chan error, 1)
	go func() {
		done <- listen()
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

type listener interface{ Close() error }

// Serve is mobile.Server.Serve's closer without its stop case: the
// goroutine waits only on the caller's ctx, so after Serve returns it
// lives until the caller cancels, which a long-lived ctx never does.
func Serve(ctx context.Context, l listener) {
	go func() {
		select {
		case <-ctx.Done(): // want `waits only on the Done\(\) of a context its spawner received`
			_ = l.Close()
		}
	}()
}

// ServeStop is the closer as Serve has it: the stop case ends the
// goroutine when the function returns. Compliant.
func ServeStop(ctx context.Context, l listener) {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			_ = l.Close()
		case <-stop:
		}
	}()
}

// Watch waits on a bare receive from the caller's ctx: flagged like
// Serve.
func Watch(ctx context.Context, l listener) {
	go func() {
		<-ctx.Done() // want `waits only on the Done\(\) of a context its spawner received`
		_ = l.Close()
	}()
}

// WatchDerived waits on a context it derives and cancels on return:
// compliant.
func WatchDerived(ctx context.Context, l listener) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		<-ctx.Done()
		_ = l.Close()
	}()
}
