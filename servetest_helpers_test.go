//go:build servesmoke || soak

// Shared plumbing for the end-to-end harnesses that run the real
// supremm-serve binary (serve_smoke_test.go, soak_test.go,
// soak_ingest_test.go): build the binary, boot it on an ephemeral port,
// and learn the actual listen addresses from the server's own "serving
// api" log line. Binding :0 and parsing addr= / ingest= removes the
// reserve-then-rebind port race the smoke test used to carry.
package repro

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildServe compiles cmd/supremm-serve into the test's temp dir.
// withRace adds the race detector (the soak harness wants the server
// itself racing-checked, not just the packages).
func buildServe(t *testing.T, withRace bool) string {
	t.Helper()
	bin := t.TempDir() + "/supremm-serve"
	args := []string{"build"}
	if withRace {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "./cmd/supremm-serve")
	build := exec.Command("go", args...)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building supremm-serve: %v", err)
	}
	return bin
}

// startServe boots the binary with -addr 127.0.0.1:0 plus the given
// flags and waits for the "serving api" line, teeing all server logs
// through to the test's stderr. The server binds its listeners before
// logging that line, so once the addresses are known the API (and any
// ingest wire) is up (the log level must allow info lines). Returns the
// base URL and the ingest address ("off" without -ingest-addr).
func startServe(t *testing.T, bin string, args ...string) (string, string, *exec.Cmd) {
	t.Helper()
	srv := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	srv.Stdout = os.Stderr
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	type addrs struct{ http, ingest string }
	addrCh := make(chan addrs, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if strings.Contains(line, `msg="serving api"`) {
				var a addrs
				for _, tok := range strings.Fields(line) {
					if v, ok := strings.CutPrefix(tok, "addr="); ok {
						a.http = v
					}
					if v, ok := strings.CutPrefix(tok, "ingest="); ok {
						a.ingest = v
					}
				}
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()

	// Workload generation (and -race instrumentation) happens before the
	// bind, so allow a generous startup window.
	select {
	case a := <-addrCh:
		return "http://" + a.http, a.ingest, srv
	case <-time.After(120 * time.Second):
		srv.Process.Kill()
		t.Fatal("server never logged its serving address")
		return "", "", nil
	}
}

// stopServe terminates the server gracefully, escalating to SIGKILL.
func stopServe(t *testing.T, srv *exec.Cmd) {
	t.Helper()
	srv.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { srv.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Error("server ignored SIGTERM; killing")
		srv.Process.Kill()
		<-done
	}
}

// metricValues extracts every sample of one metric family from a
// Prometheus text exposition, keyed by the full label part ("" for an
// unlabelled sample).
func metricValues(text, family string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		var labels string
		switch {
		case strings.HasPrefix(rest, "{"):
			end := strings.Index(rest, "} ")
			if end < 0 {
				continue
			}
			labels, rest = rest[:end+1], rest[end+1:]
		case strings.HasPrefix(rest, " "):
			// unlabelled sample
		default:
			continue // a longer family name sharing the prefix
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[labels] = v
	}
	return out
}

// metricSum totals every sample of a family.
func metricSum(text, family string) float64 {
	sum := 0.0
	for _, v := range metricValues(text, family) {
		sum += v
	}
	return sum
}
