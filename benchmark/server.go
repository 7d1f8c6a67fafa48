package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

// server is one wtq-server child process.
type server struct {
	cmd  *exec.Cmd
	addr string // host:port, parsed from the "listening on" log line
	exec time.Time

	mu     sync.Mutex
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
}

// live tracks every child still running, so an interrupt can stop them.
var live = struct {
	sync.Mutex
	set map[*server]bool
}{set: map[*server]bool{}}

// startServer executes the server binary and returns once it has logged
// its listening address. The address is always 127.0.0.1:0, so runs
// never collide on a port.
func startServer(bin string, args ...string) (*server, error) {
	s := &server{done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	s.cmd.Stdout = io.Discard
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.exec = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	live.Lock()
	live.set[s] = true
	live.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.stderr.WriteString(line + "\n")
			s.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		_ = s.cmd.Wait() // the exit status of a killed child carries no news
		live.Lock()
		delete(live.set, s)
		live.Unlock()
		close(s.done)
	}()

	select {
	case a := <-addr:
		s.addr = a
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("server exited before listening:\n%s", s.log())
	case <-time.After(120 * time.Second):
		s.stop(syscall.SIGKILL)
		return nil, fmt.Errorf("server did not listen within 120s:\n%s", s.log())
	}
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

// stop signals the process and waits until it has ended.
func (s *server) stop(sig syscall.Signal) {
	_ = s.cmd.Process.Signal(sig) // fails only if the process is already gone
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func stopAllServers() {
	live.Lock()
	var all []*server
	for s := range live.set {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop(syscall.SIGKILL)
	}
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux ABI.
const clockTick = 100

// cpuSeconds reads the process's user and system CPU time.
func (s *server) cpuSeconds() (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, errors.New("unexpected /proc/<pid>/stat format")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, errors.New("unexpected /proc/<pid>/stat format")
	}
	return ut / clockTick, st / clockTick, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}

// scrape reads GET /metrics into name -> value; histogram buckets and
// any other labelled series are left out.
func scrape(cl *http.Client, addr string) (map[string]float64, error) {
	resp, err := cl.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// copyDir copies a flat data directory (the server keeps no
// subdirectories in it).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
