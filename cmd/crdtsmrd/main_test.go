package main

// End-to-end crash recovery of the real daemon: build the binary, run a
// 3-node cluster with per-node -data-dir, write through the public
// client, kill -9 every process, re-exec them with the same directories,
// and read the data back. Nothing survives in memory between the two
// generations — what the restarted cluster serves came off disk, which is
// the acceptance test of the paper's log-free recovery claim.

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"crdtsmr/client"
)

// freePorts reserves n distinct TCP ports by listening and closing.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	lns := make([]net.Listener, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		_ = ln.Close()
	}
	return ports
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "crdtsmrd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

type daemonSpec struct {
	id         string
	meshPort   int
	clientPort int
	dataDir    string
}

func startDaemon(t *testing.T, bin, peers string, sp daemonSpec) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "serve",
		"-id", sp.id,
		"-listen", fmt.Sprintf("127.0.0.1:%d", sp.meshPort),
		"-client-listen", fmt.Sprintf("127.0.0.1:%d", sp.clientPort),
		"-peers", peers,
		"-data-dir", sp.dataDir,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", sp.id, err)
	}
	return cmd
}

// waitReady pings the daemon's client port until it answers.
func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		c, err := client.New([]string{addr}, client.WithDialTimeout(time.Second))
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			err = c.Ping(ctx)
			cancel()
			_ = c.Close()
			if err == nil {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became ready", addr)
}

// TestServeRejectsUnservedPayload: -payload accepts exactly the served
// types, and the startup error names all of them.
func TestServeRejectsUnservedPayload(t *testing.T) {
	err := serve([]string{"-id", "n1", "-listen", "127.0.0.1:0", "-peers", "n1=127.0.0.1:0", "-payload", "ew-flag"})
	if err == nil {
		t.Fatal("serve -payload ew-flag started")
	}
	if want := "(known types: g-counter, lww-register, or-set, pn-counter)"; !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("error %q does not end with %q", err, want)
	}
}

// TestDocumentedServeFlagsExist keeps the docs honest about the daemon:
// every flag on a `crdtsmrd serve` command line in README.md or docs/*.md,
// continuation lines included, must be one `serve -h` lists.
func TestDocumentedServeFlagsExist(t *testing.T) {
	out, err := exec.Command(buildDaemon(t), "serve", "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("serve -h: %v\n%s", err, out)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([\w-]+)`).FindAllStringSubmatch(string(out), -1) {
		defined[m[1]] = true
	}
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile(`^--?([a-zA-Z][\w-]*)`)
	checked := 0
	for _, path := range append(docs, "../../README.md") {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		for i, line := range lines {
			_, cmd, ok := strings.Cut(line, "crdtsmrd serve")
			if !ok {
				continue
			}
			for j := i; ; {
				cmd, _, _ = strings.Cut(cmd, "`") // an inline code span ends here
				cmd, _, _ = strings.Cut(cmd, "#")
				for _, tok := range strings.Fields(cmd) {
					if m := flagRE.FindStringSubmatch(tok); m != nil {
						checked++
						if !defined[m[1]] {
							t.Errorf("%s:%d: crdtsmrd serve has no -%s flag", path, j+1, m[1])
						}
					}
				}
				if j++; !strings.HasSuffix(strings.TrimSpace(cmd), "\\") || j == len(lines) {
					break
				}
				cmd = lines[j]
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no documented serve flags; the scan is broken")
	}
}

func TestKillDashNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon")
	}
	bin := buildDaemon(t)
	ports := freePorts(t, 6)
	base := t.TempDir()

	specs := make([]daemonSpec, 3)
	peers := ""
	for i := range specs {
		id := fmt.Sprintf("n%d", i+1)
		specs[i] = daemonSpec{
			id:         id,
			meshPort:   ports[i],
			clientPort: ports[3+i],
			dataDir:    filepath.Join(base, id),
		}
		if i > 0 {
			peers += ","
		}
		peers += fmt.Sprintf("%s=127.0.0.1:%d", id, ports[i])
	}
	clientAddrs := make([]string, 3)
	for i, sp := range specs {
		clientAddrs[i] = fmt.Sprintf("127.0.0.1:%d", sp.clientPort)
	}

	// Generation 1: start, write, verify.
	gen1 := make([]*exec.Cmd, 3)
	for i, sp := range specs {
		gen1[i] = startDaemon(t, bin, peers, sp)
	}
	killAll := func(cmds []*exec.Cmd) {
		for _, cmd := range cmds {
			if cmd.Process != nil {
				_ = cmd.Process.Signal(syscall.SIGKILL)
			}
		}
		for _, cmd := range cmds {
			_ = cmd.Wait()
		}
	}
	defer killAll(gen1)
	for _, addr := range clientAddrs {
		waitReady(t, addr)
	}

	c, err := client.New(clientAddrs,
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 12, Backoff: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Counter("views").Inc(ctx, 7); err != nil {
		t.Fatalf("gen1 inc: %v", err)
	}
	if err := c.Set("or-set/sessions").Add(ctx, "alice"); err != nil {
		t.Fatalf("gen1 add: %v", err)
	}
	if v, err := c.Counter("views").Value(ctx); err != nil || v != 7 {
		t.Fatalf("gen1 read = %d (%v), want 7", v, err)
	}
	_ = c.Close()

	// kill -9 the whole cluster: no shutdown hooks, no flushes — the
	// snapshots already on disk are all that survives.
	killAll(gen1)

	// Generation 2: same binary, same -data-dirs, same ports.
	gen2 := make([]*exec.Cmd, 3)
	for i, sp := range specs {
		gen2[i] = startDaemon(t, bin, peers, sp)
	}
	defer killAll(gen2)
	for _, addr := range clientAddrs {
		waitReady(t, addr)
	}

	c2, err := client.New(clientAddrs,
		client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 12, Backoff: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if v, err := c2.Counter("views").Value(ctx); err != nil || v != 7 {
		t.Fatalf("post-kill read = %d (%v), want 7", v, err)
	}
	elems, err := c2.Set("or-set/sessions").Elements(ctx)
	if err != nil || len(elems) != 1 || elems[0] != "alice" {
		t.Fatalf("post-kill or-set = %v (%v), want [alice]", elems, err)
	}
	// The recovered cluster must keep accepting writes.
	if err := c2.Counter("views").Inc(ctx, 3); err != nil {
		t.Fatalf("post-kill inc: %v", err)
	}
	if v, err := c2.Counter("views").Value(ctx); err != nil || v != 10 {
		t.Fatalf("post-kill second read = %d (%v), want 10", v, err)
	}
}
