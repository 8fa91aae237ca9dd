// Package e2e drives the real tierd and tiersim binaries over their
// outside surfaces — flags, HTTP, the NetFlow v5 UDP wire, stdin, the
// files of a trace directory — and measures what a user of them would
// see. It imports no layer of the repository except the NetFlow codec
// (through bench/gen), so an internal refactor cannot break it.
package e2e

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Env is what set-up leaves for the stages of one run.
type Env struct {
	Bin   string // directory holding tierd and tiersim
	Work  string // this run's scratch directory
	Seed  int64
	Procs int // the box's processor count
	// FreshKeys selects the workload whose inputs share no work: quotes
	// that mostly miss the window and records no second router repeats.
	FreshKeys bool
}

// children tracks every live subprocess so an interrupted benchmark can
// take them down with it.
var children struct {
	sync.Mutex
	live map[*exec.Cmd]struct{}
}

func track(cmd *exec.Cmd) {
	children.Lock()
	defer children.Unlock()
	if children.live == nil {
		children.live = map[*exec.Cmd]struct{}{}
	}
	children.live[cmd] = struct{}{}
}

func untrack(cmd *exec.Cmd) {
	children.Lock()
	defer children.Unlock()
	delete(children.live, cmd)
}

// KillAll kills every subprocess still running; main calls it on a
// signal and before any exit.
func KillAll() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.live {
		_ = cmd.Process.Kill() // already-exited is the only failure
	}
}

// Tierd is one running daemon.
type Tierd struct {
	HTTP string // base URL
	UDP  string // collector address, empty without -udp
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	// Started is when the process was exec'd.
	Started time.Time
}

var servingLine = regexp.MustCompile(`serving http://([^\s,]+)(?:, ingesting udp ([^\s,]+))?`)

// StartTierd execs tierd on ephemeral ports, piping stdin from the given
// file when it is not empty, and returns once the daemon has printed the
// addresses it serves on. Its stderr is kept in logName under env.Work.
func StartTierd(ctx context.Context, env Env, logName, stdinFile string, args ...string) (*Tierd, error) {
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(filepath.Join(env.Bin, "tierd"), args...)
	if stdinFile != "" {
		in, err := os.Open(stdinFile)
		if err != nil {
			return nil, err
		}
		defer in.Close() // the child holds its own descriptor after Start
		cmd.Stdin = in
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(env.Work, logName))
	if err != nil {
		return nil, err
	}
	t := &Tierd{cmd: cmd, done: make(chan struct{}), Started: time.Now()}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting tierd: %w", err)
	}
	track(cmd)
	addrs := make(chan []string, 1)
	go func() {
		defer close(t.done)
		defer logFile.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logFile, line)
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case addrs <- m:
				default:
				}
			}
		}
		_ = cmd.Wait() // a killed daemon's exit status carries no news
		untrack(cmd)
	}()
	select {
	case m := <-addrs:
		t.HTTP, t.UDP = "http://"+m[1], m[2]
		return t, nil
	case <-t.done:
		return nil, fmt.Errorf("tierd exited before serving; see %s", logFile.Name())
	case <-ctx.Done():
		t.Kill()
		return nil, fmt.Errorf("tierd did not start serving: %w", ctx.Err())
	}
}

// PID is the daemon's process ID.
func (t *Tierd) PID() int { return t.cmd.Process.Pid }

// Kill is kill -9 and waits until the process is gone.
func (t *Tierd) Kill() {
	_ = t.cmd.Process.Kill() // already-exited is the only failure
	<-t.done
}

// newClient is one keep-alive HTTP connection's worth of client.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// get fetches url and returns the status and whole body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// waitFor polls cond every millisecond until it holds or ctx ends.
func waitFor(ctx context.Context, what string, cond func() bool) error {
	for !cond() {
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", what, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// scrape reads /metrics into name{labels} → value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	status, body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// procCPU is the process's user+system CPU time. /proc/<pid>/stat counts
// it in 10 ms ticks; the threads' schedstat files count nanoseconds, so
// they are preferred where the kernel has them.
func procCPU(pid int) (time.Duration, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
	}
	if ns > 0 {
		return time.Duration(ns), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procRSS is the process's resident set in bytes.
func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, errors.New("short /proc statm line")
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize()), err
}

// dialUDP connects a sending socket to tierd's collector.
func dialUDP(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	// A deep send buffer lets a paced burst leave without blocking.
	_ = conn.SetWriteBuffer(4 << 20)
	return conn, nil
}

// BoxCPU reads the box's processor accounting from /proc/stat, in ticks:
// everything its processors were given or denied, and the part stolen —
// time a processor had work to run and the host ran a neighbour instead.
func BoxCPU() (total, stolen int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("/proc/stat: no aggregate cpu line")
	}
	for i, field := range f[1:] {
		v, _ := strconv.ParseInt(field, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			stolen = v
		}
	}
	return total, stolen, nil
}
