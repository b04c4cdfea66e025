package advisor

// Subprocess tests for the signal contract the advisor shares with
// every binary in the repo (internal/lifecycle): the first
// SIGINT/SIGTERM begins a graceful drain -- admission stops,
// in-flight requests finish -- and the process exits 130; a second
// signal aborts immediately with 128+signal. os.Exit and real signal
// delivery require a child process, so TestMain re-execs the test
// binary as a miniature advisor daemon when ADVISOR_SIGNAL_CHILD is
// set.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"onchip/internal/experiments"
	"onchip/internal/lifecycle"
	"onchip/internal/obs"
)

func TestMain(m *testing.M) {
	if os.Getenv("ADVISOR_SIGNAL_CHILD") == "1" {
		os.Exit(signalChildMain())
	}
	os.Exit(m.Run())
}

// signalChildMain is the child: a one-worker advisor whose runner
// sleeps ADVISOR_CHILD_SLEEP per request, wired into the production
// signal contract exactly like cmd/advisor.
func signalChildMain() int {
	sleep, err := time.ParseDuration(os.Getenv("ADVISOR_CHILD_SLEEP"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: bad ADVISOR_CHILD_SLEEP:", err)
		return 3
	}
	ctx, stop := lifecycle.Notify(context.Background(), "advisor-child", os.Stderr)
	defer stop()
	srv := New(Config{
		Workers:      1,
		DrainTimeout: 20 * time.Second,
		Logw:         os.Stderr,
		Run: func(ctx context.Context, req experiments.AdviseRequest) (*experiments.AdviseResponse, error) {
			select {
			case <-time.After(sleep):
				return fakeResponse(req), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 3
	}
	httpSrv := obs.NewHTTPServer(srv.Handler())
	go httpSrv.Serve(ln)
	fmt.Printf("ADDR=%s\n", ln.Addr())

	<-ctx.Done() // first signal
	if err := srv.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, "child: drain:", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	return lifecycle.InterruptExit
}

// startSignalChild launches the re-exec'd child and returns its
// command handle and base URL.
func startSignalChild(t *testing.T, sleep time.Duration) (*exec.Cmd, string) {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal test")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"ADVISOR_SIGNAL_CHILD=1",
		"ADVISOR_CHILD_SLEEP="+sleep.String(),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "ADDR="); ok {
			go io.Copy(io.Discard, stdout) // keep the pipe drained
			return cmd, "http://" + addr
		}
	}
	t.Fatalf("child exited before printing its address: %v", sc.Err())
	return nil, ""
}

// exitCode waits for the child and returns its exit status.
func exitCode(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	err := cmd.Wait()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !asExitError(err, &ee) {
		t.Fatalf("child wait: %v", err)
	}
	return ee.ExitCode()
}

func asExitError(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

// TestFirstSignalDrainsInFlightRequest: SIGTERM while a request is in
// flight must let that request finish with its real 200 answer and
// exit with the graceful-shutdown status 130.
func TestFirstSignalDrainsInFlightRequest(t *testing.T) {
	cmd, url := startSignalChild(t, 1500*time.Millisecond)

	type result struct {
		status int
		body   []byte
		err    error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/advise", "application/json",
			strings.NewReader(`{"workloads":["mab"],"refs":2000}`))
		if err != nil {
			got <- result{err: err}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{status: resp.StatusCode, body: b}
	}()
	time.Sleep(400 * time.Millisecond) // request admitted, runner sleeping
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d body %s, want 200", r.status, r.body)
	}
	if code := exitCode(t, cmd); code != lifecycle.InterruptExit {
		t.Fatalf("graceful drain exit code = %d, want %d", code, lifecycle.InterruptExit)
	}
}

// TestSecondSignalAbortsImmediately: with a request that would hold
// the drain for 30s, a second signal must end the process right away
// with 128+signal (SIGINT -> 130), not wait out the drain.
func TestSecondSignalAbortsImmediately(t *testing.T) {
	cmd, url := startSignalChild(t, 30*time.Second)

	go func() {
		resp, err := http.Post(url+"/advise", "application/json",
			strings.NewReader(`{"workloads":["mab"],"refs":2000}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(400 * time.Millisecond)
	start := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // drain is now waiting on the 30s job
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	code := exitCode(t, cmd)
	elapsed := time.Since(start)
	if code != 130 {
		t.Fatalf("second-signal abort exit code = %d, want 130", code)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("abort took %v; the second signal must not wait out the drain", elapsed)
	}
}
