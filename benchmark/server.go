package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process hygiene: every ftserve child gets its own process group, is killed
// on any failure or phase timeout, and is waited for; leftovers() finds any
// that escaped.

const (
	bootTimeout    = 60 * time.Second
	queryTimeout   = 2 * time.Second
	batchTimeout   = 30 * time.Second // a batch may carry a checkpoint rebuild
	listenTimeout  = 10 * time.Second
	shutdownWait   = 15 * time.Second
	readyPollEvery = 5 * time.Millisecond
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod: the checkout root, whether started by go run there or by go test
// in benchmark/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// outDir is where everything the benchmark writes goes: the ftserve binary,
// graph files, WAL directories, traces. It is inside the checkout and
// git-ignored.
func outDir() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// buildServer compiles cmd/ftserve once per process. The go tool's own
// cache makes later runs in the same checkout cheap; no metric is charged.
func buildServer(out string) (string, error) {
	bin := filepath.Join(out, "ftserve")
	cmd := exec.Command("go", "build", "-o", bin, "ftspanner/cmd/ftserve")
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ftserve: %v\n%s", err, msg)
	}
	return bin, nil
}

// server is one running ftserve child.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	ctl  *http.Client

	mu     sync.Mutex
	stdout bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

// startServer execs ftserve and waits for its "listening on" line. The
// returned start time is taken just before the exec, for boot_s/recover_s.
func startServer(bin string, args ...string) (*server, time.Time, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	s := &server{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	s.cmd.Stderr = os.Stderr
	pipe, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, time.Time{}, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, start, fmt.Errorf("exec ftserve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		// Ends when the child closes stdout, that is, when it exits; Wait
		// must come after the pipe is drained.
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stdout.WriteString(line + "\n")
			s.mu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, start, fmt.Errorf("ftserve exited before listening:\n%s", s.output())
	case <-time.After(listenTimeout):
		s.kill()
		return nil, start, errors.New("ftserve did not print its listening line")
	}
	s.ctl = &http.Client{Timeout: queryTimeout}
	return s, start, nil
}

func (s *server) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stdout.String()
}

// waitReady polls /readyz until it answers 200 and returns the epoch it
// reports and the time of that answer.
func (s *server) waitReady(limit time.Duration) (uint64, time.Time, error) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return 0, time.Time{}, fmt.Errorf("ftserve exited while booting:\n%s", s.output())
		default:
		}
		var r struct {
			Ready bool   `json:"ready"`
			Epoch uint64 `json:"epoch"`
		}
		if status, err := s.getJSON("/readyz", &r); err == nil && status == http.StatusOK && r.Ready {
			return r.Epoch, time.Now(), nil
		}
		time.Sleep(readyPollEvery)
	}
	return 0, time.Time{}, fmt.Errorf("not ready after %s", limit)
}

func (s *server) getJSON(path string, v any) (int, error) {
	resp, err := s.ctl.Get(s.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

// serverStats is the part of /stats the harness reads.
type serverStats struct {
	Epoch       uint64 `json:"epoch"`
	SpannerM    int    `json:"spanner_m"`
	Checkpoints uint64 `json:"checkpoints"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	status, err := s.getJSON("/stats", &st)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("/stats answered %d", status)
	}
	return st, err
}

// peakRSSMB reads VmHWM, the child's peak resident set, in MB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line")
}

// kill sends SIGKILL to the child's process group and waits for it.
func (s *server) kill() {
	syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	<-s.exited
}

// terminate sends SIGTERM and reports whether the child shut down cleanly,
// by its own account and by its exit status.
func (s *server) terminate() error {
	syscall.Kill(s.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(shutdownWait):
		s.kill()
		return errors.New("ftserve ignored SIGTERM")
	}
	if !s.cmd.ProcessState.Success() {
		return fmt.Errorf("ftserve exited with %s", s.cmd.ProcessState)
	}
	if !strings.Contains(s.output(), "shut down cleanly") {
		return errors.New("ftserve did not report a clean shutdown")
	}
	return nil
}

// leftovers lists the processes still running the benchmark's ftserve
// binary. After a run there must be none.
func leftovers(bin string) []int {
	procs, _ := filepath.Glob("/proc/[0-9]*")
	var pids []int
	for _, p := range procs {
		if exe, err := os.Readlink(filepath.Join(p, "exe")); err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			pid, _ := strconv.Atoi(filepath.Base(p))
			pids = append(pids, pid)
		}
	}
	return pids
}
