package bench

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one stsserved process the benchmark started. Stop kills and
// reaps it; callers defer Stop on every path.
type Server struct {
	Base    string
	DataDir string
	Args    []string
	cmd     *exec.Cmd
	logf    *os.File
	done    chan struct{}
	waitErr error
}

// ServerArgs is the full stsserved command line for one run: the common
// deployment flags, the workload's own flags, and the per-run address,
// data directory and corpus file. The seed never reaches the server.
func ServerArgs(w Workload, addr, dataDir, corpus string) []string {
	args := []string{"-addr", addr, "-data-dir", dataDir, "-dataset", corpus}
	args = append(args, CommonFlags...)
	return append(args, w.Flags...)
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// StartServer execs bin with the workload's arguments on a free port and a
// fresh data directory under runDir, and waits until /healthz answers (the
// -dataset preload happens before the listener opens). Extra arguments
// are appended.
func StartServer(ctx context.Context, bin string, w Workload, runDir, corpus string, extra ...string) (*Server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(runDir, "data-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	s := &Server{
		Base:    "http://" + addr,
		DataDir: dataDir,
		Args:    append(ServerArgs(w, addr, dataDir, corpus), extra...),
		logf:    logf,
		done:    make(chan struct{}),
	}
	s.cmd = exec.Command(bin, s.Args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	if err := s.waitReady(ctx, 120*time.Second); err != nil {
		s.Stop()
		return nil, fmt.Errorf("%w\n%s", err, s.LogTail())
	}
	return s, nil
}

func (s *Server) waitReady(ctx context.Context, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("server exited during start-up: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(s.Base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("server not ready in time")
}

// Pid returns the server's process ID.
func (s *Server) Pid() int { return s.cmd.Process.Pid }

// Stop sends SIGTERM, waits up to 20 s for the drain, then kills; it
// always reaps the process. Safe to call more than once. It returns the
// process's exit error, if any.
func (s *Server) Stop() error {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.logf.Close()
	return s.waitErr
}

// LogTail returns the last lines of the server's log.
func (s *Server) LogTail() string {
	b, _ := os.ReadFile(s.logf.Name())
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// ProcStat is a process's accumulated CPU time and peak resident set.
type ProcStat struct {
	CPU   time.Duration // utime + stime
	HWMkB int64         // VmHWM
}

// ReadProc reads pid's CPU time from /proc/<pid>/stat and its peak RSS
// from /proc/<pid>/status.
func ReadProc(pid int) (ProcStat, error) {
	var ps ProcStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	// The kernel reports clock ticks; USER_HZ is 100 on every Linux ABI.
	ps.CPU = time.Duration(ut+st) * (time.Second / 100)
	sf, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	defer sf.Close()
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			ps.HWMkB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return ps, sc.Err()
}

// DirBytes sums the sizes of the regular files under dir.
func DirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// FSType names the filesystem holding dir.
func FSType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext2/3/4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// Metrics is one /metrics scrape: series (name plus labels, as printed)
// to value.
type Metrics map[string]float64

// Scrape reads the server's Prometheus text.
func Scrape(ctx context.Context, hc *http.Client, base string) (Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	m := make(Metrics)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// Delta returns after[k] - m[k].
func (m Metrics) Delta(after Metrics, k string) float64 { return after[k] - m[k] }
