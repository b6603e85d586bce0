package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bloomlang/internal/core"
	"bloomlang/internal/train"
)

// trainProfiles runs the streaming trainer over the corpus's training
// split and saves the profiles where langidd will load them.
func trainProfiles(w *workload, path string) error {
	t, err := train.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	for _, lang := range w.train.Languages {
		for _, text := range w.train.TrainTexts(lang) {
			if err := t.Add(lang, text); err != nil {
				t.Abort()
				return err
			}
		}
	}
	ps, _, err := t.Finalize()
	if err != nil {
		return err
	}
	return ps.SaveFile(path)
}

// daemon is one running langidd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
}

// live tracks started daemons so an interrupted benchmark still stops
// them.
var live struct {
	sync.Mutex
	daemons map[*daemon]bool
}

// startDaemon execs langidd on a free loopback port and returns once
// /healthz answers 200.
func startDaemon(profiles, backend, logPath, bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		logf, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, "-addr", addr, "-profiles", profiles, "-backend", backend)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The kernel kills langidd if the benchmark dies first.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("starting langidd: %w", err)
		}
		d := &daemon{cmd: cmd, addr: addr, done: make(chan struct{})}
		live.Lock()
		if live.daemons == nil {
			live.daemons = map[*daemon]bool{}
		}
		live.daemons[d] = true
		live.Unlock()
		go func() {
			// The exit status is not needed: a daemon that dies early
			// fails /healthz or the load instead.
			_ = cmd.Wait()
			logf.Close()
			close(d.done)
		}()
		if lastErr = d.waitHealthy(); lastErr == nil {
			return d, nil
		}
		d.stop()
		log, _ := os.ReadFile(logPath)
		lastErr = fmt.Errorf("%w; langidd log:\n%s", lastErr, log)
	}
	return nil, lastErr
}

// freeAddr picks a loopback port the kernel reports unused.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (d *daemon) waitHealthy() error {
	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   time.Second,
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return errors.New("langidd exited before answering /healthz")
		default:
		}
		resp, err := client.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("langidd did not answer /healthz within 30s")
}

// rssPeakMiB reads the process's peak resident set size (VmHWM).
func (d *daemon) rssPeakMiB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks langidd to drain and exit, kills it if it does not, and
// waits until it has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it has already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	live.Lock()
	delete(live.daemons, d)
	live.Unlock()
}

// stopAll stops every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.daemons))
	for d := range live.daemons {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}
