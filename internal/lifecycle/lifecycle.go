// Package lifecycle implements the shutdown contract shared by every
// binary in this repository: the first SIGINT or SIGTERM cancels the
// run's context so in-flight work stops at the next safe boundary --
// telemetry is flushed and partial results are written -- and a second
// signal aborts immediately with the conventional 128+signal exit
// status. See DESIGN.md "Failure policy".
package lifecycle

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// InterruptExit is the exit status a binary returns after a graceful,
// signal-initiated shutdown (the SIGINT convention, 128+2).
const InterruptExit = 130

// Notify returns a child of parent that is cancelled on the first
// SIGINT or SIGTERM. A line naming the signal and the shutdown contract
// is written to w (stderr when nil) so an operator watching an
// hours-long sweep knows the interrupt registered; a second signal
// os.Exits immediately with 128+signal. The returned stop releases the
// signal handler and its goroutine -- call it (usually deferred) once
// the run is done.
func Notify(parent context.Context, name string, w io.Writer) (ctx context.Context, stop func()) {
	if w == nil {
		w = os.Stderr
	}
	ctx, cancel := context.WithCancel(parent)
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-sigs:
			fmt.Fprintf(w, "%s: received %v; shutting down gracefully (partial results; signal again to abort)\n", name, sig)
			cancel()
		case <-done:
			return
		}
		select {
		case sig := <-sigs:
			fmt.Fprintf(w, "%s: received second %v; aborting\n", name, sig)
			os.Exit(128 + exitNum(sig))
		case <-done:
		}
	}()
	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			signal.Stop(sigs)
			cancel()
			close(done)
		})
	}
}

// OnShutdown registers fn to run exactly once when ctx (usually the
// Notify context) is cancelled, and returns a trigger that runs it
// immediately if it has not run yet. It is the flush-on-shutdown hook
// durable state needs: the goroutine fires the moment a signal cancels
// the run -- so buffered data (a span trace, say) hits disk even if
// the main path takes a while to unwind -- while the returned trigger,
// deferred in main, covers the normal exit path. Errors from fn are
// reported to w (stderr when nil) prefixed with name.
func OnShutdown(ctx context.Context, name string, w io.Writer, fn func() error) (trigger func()) {
	if w == nil {
		w = os.Stderr
	}
	var once sync.Once
	run := func() {
		once.Do(func() {
			if err := fn(); err != nil {
				fmt.Fprintf(w, "%s: shutdown flush: %v\n", name, err)
			}
		})
	}
	go func() {
		<-ctx.Done()
		run()
	}()
	return run
}

func exitNum(sig os.Signal) int {
	if s, ok := sig.(syscall.Signal); ok {
		return int(s)
	}
	return 1
}
