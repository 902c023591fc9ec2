package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is a vfpgad child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	stopped bool
	// startup is exec to the first /healthz that reports ok.
	startup time.Duration
}

// startDaemon execs bin with flags plus a loopback listener and waits
// until /healthz reports ok. runDir holds the address file.
func startDaemon(bin, runDir string, flags []string) (*daemon, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(runDir, fmt.Sprintf("vfpgad-%d-%d.addr", os.Getpid(), time.Now().UnixNano()))
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, flags...)
	// run.sh starts the driver at a raised priority so that its
	// timestamps are not held up by the daemon's threads on the shared
	// CPUs; the daemon goes back to the default priority.
	if n := selfNice(); n != 0 {
		if nice, err := exec.LookPath("nice"); err == nil {
			args = append([]string{"-n", strconv.Itoa(-n), bin}, args...)
			bin = nice
		}
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	// The daemon dies with the driver, even if the driver crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vfpgad: %w", err)
	}
	d := &daemon{cmd: cmd}
	defer os.Remove(addrFile)
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" && healthy(hc, d.base) {
			d.startup = time.Since(start)
			hc.CloseIdleConnections()
			return d, nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	return nil, fmt.Errorf("vfpgad did not become healthy within 60s")
}

func healthy(hc *http.Client, base string) bool {
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&h) == nil && h.Status == "ok"
}

// stop sends SIGTERM (vfpgad drains and exits 0) and waits for exit,
// killing the process if the drain takes more than 30s.
func (d *daemon) stop() error {
	if d == nil || d.stopped {
		return nil
	}
	d.stopped = true
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("vfpgad did not drain within 30s; killed")
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// procCPU returns utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past the last ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu times in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procStatusKB returns a "Vm*:" field of /proc/<pid>/status in KiB.
func procStatusKB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, field+":") {
			fs := strings.Fields(line[len(field)+1:])
			if len(fs) == 0 {
				break
			}
			return strconv.ParseFloat(fs[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// selfNice returns this process's nice value (field 19 of
// /proc/self/stat), 0 if it cannot be read.
func selfNice() int {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 17 {
		return 0
	}
	n, _ := strconv.Atoi(f[16]) // f[0] is field 3
	return n
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU returns the machine's steal and total jiffies from the first
// line of /proc/stat. Steal is time the hypervisor gave this machine's
// CPUs to someone else: the neighbour noise a run cannot control.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}
