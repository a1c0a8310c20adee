package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// daemon is one fsamd child process and the benchmark's single
// keep-alive connection to it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan error // receives cmd.Wait's result once the process exits
}

// startDaemon launches bin on a free loopback port and waits until it
// reports the address it listens on.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quiet", "-grace", "5s")
	cmd.Stderr = os.Stderr
	// fsamd must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fsamd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "fsamd: listening on "); ok {
				addr <- a
				break
			}
		}
		// Drain the rest so the child never blocks on a full pipe; Wait
		// closes the pipe once the process exits.
		_, _ = io.Copy(io.Discard, out) // the pipe closes when fsamd exits
		d.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.done:
		return nil, fmt.Errorf("fsamd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("fsamd did not report its address within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, lets fsamd drain, and waits for it to exit; after
// ten seconds it kills the process.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // last resort; Wait below reaps it
		<-d.done
	}
}

// call issues one request and returns the status and the whole body.
func (d *daemon) call(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
