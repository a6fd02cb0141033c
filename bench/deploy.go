package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A deployment is the system under test: two tier-shard daemons and one
// host daemon, all real faasmd processes on loopback. Shards outlive hosts,
// so a run can put several fresh hosts in front of the same tier.

const (
	shardCount    = 2
	stateReplicas = 2
	hostName      = "bench-host"
	readyTimeout  = 20 * time.Second
)

// proc is one daemon process.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	http    string // host:port of its HTTP surface
	kvs     string // host:port of the tier shard it serves ("" for a host)
	exited  chan struct{}
	waitErr error // set before exited closes
}

func (p *proc) url(path string) string { return "http://" + p.http + path }

// alive reports whether the process is still running.
func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// logTail returns the last lines of the daemon's log, for failure reports.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return fmt.Sprintf("(no log: %v)", err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}

// stop kills the daemon's whole process group and waits for it to end.
func (p *proc) stop() {
	if p.alive() {
		// Negative pid addresses the group the daemon leads (Setpgid).
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-p.exited
	liveProcs.remove(p)
}

// procSet tracks every daemon this process has started and not yet stopped,
// so an error exit or a signal can take them all down.
type procSet struct {
	mu sync.Mutex
	m  map[*proc]struct{}
}

var liveProcs = procSet{m: map[*proc]struct{}{}}

func (s *procSet) add(p *proc) {
	s.mu.Lock()
	s.m[p] = struct{}{}
	s.mu.Unlock()
}

func (s *procSet) remove(p *proc) {
	s.mu.Lock()
	delete(s.m, p)
	s.mu.Unlock()
}

// stopAll kills every live daemon and waits for each to end.
func (s *procSet) stopAll() {
	s.mu.Lock()
	ps := make([]*proc, 0, len(s.m))
	for p := range s.m {
		ps = append(ps, p)
	}
	s.mu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// freeAddr asks the kernel for an unused loopback port. The port is released
// before the daemon binds it, so something else (an outgoing connection of
// this very process, say) can take it in between: the daemon then fails to
// start, and startFresh tries again on new ports.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// deployment holds the running daemons of one system under test.
type deployment struct {
	bin    string // faasmd binary
	logDir string
	shards []*proc
	host   *proc
	// firstExec is when the first daemon of this deployment was started:
	// the origin of setup_s.
	firstExec time.Time
}

// startProc launches faasmd with args, logging to <logDir>/<name>.log, in
// its own process group, and waits until its /status answers.
func (d *deployment) startProc(name, httpAddr, kvsAddr string, args ...string) (*proc, error) {
	logPath := filepath.Join(d.logDir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(d.bin, append([]string{"-listen", httpAddr, "-host", name}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Own process group so stop() reaches anything the daemon forks;
	// Pdeathsig so the daemon dies even if this process is SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if d.firstExec.IsZero() {
		d.firstExec = time.Now()
	}
	err = cmd.Start()
	logFile.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, http: httpAddr, kvs: kvsAddr, exited: make(chan struct{})}
	liveProcs.add(p)
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	if err := p.waitReady(); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

// waitReady polls /status until the daemon answers, dies or times out.
func (p *proc) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if !p.alive() {
			return fmt.Errorf("%s exited during start-up (%v):\n%s", p.name, p.waitErr, p.logTail())
		}
		resp, err := client.Get(p.url("/status"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v:\n%s", p.name, readyTimeout, p.logTail())
}

// startAttempts is how often a daemon start is tried before the run fails.
const startAttempts = 3

// startFresh starts a daemon through start, which picks its own free ports,
// and tries again when the daemon does not come up.
func startFresh(start func() (*proc, error)) (p *proc, err error) {
	for i := 0; i < startAttempts; i++ {
		if p, err = start(); err == nil {
			return p, nil
		}
		fmt.Fprintln(os.Stderr, "bench: daemon start failed, trying again:", err)
	}
	return nil, err
}

// newDeployment starts the tier shards. The host daemon is started
// separately (startHost) so one tier can serve several hosts in turn.
func newDeployment(bin, logDir string) (*deployment, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{bin: bin, logDir: logDir}
	for i := 0; i < shardCount; i++ {
		p, err := startFresh(func() (*proc, error) {
			httpAddr, err1 := freeAddr()
			kvsAddr, err2 := freeAddr()
			if err := errors.Join(err1, err2); err != nil {
				return nil, err
			}
			return d.startProc(fmt.Sprintf("shard-%c", 'a'+i), httpAddr, kvsAddr, "-kvs", kvsAddr)
		})
		if err != nil {
			d.stop()
			return nil, err
		}
		d.shards = append(d.shards, p)
	}
	return d, nil
}

// shardAddrs lists the tier endpoints in ring order.
func (d *deployment) shardAddrs() []string {
	addrs := make([]string, len(d.shards))
	for i, s := range d.shards {
		addrs[i] = s.kvs
	}
	return addrs
}

// startHost starts a fresh host daemon in front of the shards, replacing
// any previous one. traceSample is faasmd's -trace-sample: -1 (off) for
// every untraced window — the daemon's own default samples 1 call in 64.
// Every other flag is left at its default.
func (d *deployment) startHost(traceSample int) error {
	d.stopHost()
	p, err := startFresh(func() (*proc, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		return d.startProc(hostName, addr, "",
			"-state", strings.Join(d.shardAddrs(), ","),
			"-state-replicas", fmt.Sprint(stateReplicas),
			"-trace-sample", fmt.Sprint(traceSample))
	})
	if err != nil {
		return err
	}
	d.host = p
	return nil
}

func (d *deployment) stopHost() {
	if d.host != nil {
		d.host.stop()
		d.host = nil
	}
}

// procs lists the host daemon (if any) followed by the shards.
func (d *deployment) procs() []*proc {
	var ps []*proc
	if d.host != nil {
		ps = append(ps, d.host)
	}
	return append(ps, d.shards...)
}

// checkAlive fails with the log tail of the first daemon found dead.
func (d *deployment) checkAlive() error {
	for _, p := range d.procs() {
		if !p.alive() {
			return fmt.Errorf("daemon %s died (%v); last log lines:\n%s", p.name, p.waitErr, p.logTail())
		}
	}
	return nil
}

// stop kills every daemon of the deployment.
func (d *deployment) stop() {
	d.stopHost()
	for _, s := range d.shards {
		s.stop()
	}
	d.shards = nil
}

// buildDaemon compiles cmd/faasmd from the checkout at root into outDir and
// returns the binary's path and how long the build took.
func buildDaemon(root, outDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(outDir, "faasmd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/faasmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/faasmd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// findRoot walks up from the working directory to the checkout that holds
// cmd/faasmd (the benchmark runs from bench/, see BENCHMARK.json).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "faasmd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout with cmd/faasmd above the working directory")
		}
		dir = parent
	}
}
