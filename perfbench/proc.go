package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/PID/stat. The kernel fixes it at 100 on every architecture Go
// targets, whatever CONFIG_HZ the kernel was built with.
const clockTicksPerSecond = 100

// scrubbedEnv lists the variables removed from every child's
// environment: each one changes how the process under test runs
// (fault injection, GC pacing, parallelism, runtime debug modes).
var scrubbedEnv = []string{"MPCGRAPHD_FAILPOINTS", "GOGC", "GOMAXPROCS", "GODEBUG", "TMPDIR"}

// childEnv is this process's environment without scrubbedEnv, with TMPDIR
// pointed at the run's own temp dir.
func childEnv(tmp string) []string {
	var out []string
	for _, kv := range os.Environ() {
		key, _, _ := strings.Cut(kv, "=")
		drop := false
		for _, s := range scrubbedEnv {
			if key == s {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, kv)
		}
	}
	return append(out, "TMPDIR="+tmp)
}

// childUsage is what wait4 reports for one finished child.
type childUsage struct {
	CPU       time.Duration // user + system
	MaxRSSKiB int64         // ru_maxrss, in KiB on Linux
}

// usageOf reads the rusage of a reaped child.
func usageOf(ps *os.ProcessState) childUsage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok || ru == nil {
		return childUsage{}
	}
	return rusageToUsage(ru)
}

// rusageToUsage converts the raw wait4 record.
func rusageToUsage(ru *syscall.Rusage) childUsage {
	return childUsage{
		CPU:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		MaxRSSKiB: ru.Maxrss,
	}
}

// cliRun is one finished CLI child.
type cliRun struct {
	Stdout []byte
	Wall   time.Duration // Start to reaped
	Usage  childUsage
}

// runCLI runs one CLI child to completion and reaps it. A non-zero exit
// is an error carrying the child's stderr.
func runCLI(ctx context.Context, bin string, args, env []string) (cliRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = env
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // see startDaemon
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	run := cliRun{Stdout: stdout.Bytes(), Wall: time.Since(start)}
	if cmd.ProcessState != nil {
		run.Usage = usageOf(cmd.ProcessState)
	}
	if err != nil {
		return run, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return run, nil
}

// parseStatCPU returns utime + stime, in clock ticks, from the contents
// of /proc/PID/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ")": field 3 (state) onward; utime and stime are fields 14
	// and 15, i.e. indexes 11 and 12 here.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %v", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %v", err)
	}
	return utime + stime, nil
}

// ticksToDuration converts clock ticks to a duration.
func ticksToDuration(ticks int64) time.Duration {
	return time.Duration(ticks) * time.Second / clockTicksPerSecond
}

// procCPU is the CPU time a live process has used so far.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(string(raw))
	if err != nil {
		return 0, err
	}
	return ticksToDuration(ticks), nil
}

// parseVmHWM returns the VmHWM (peak resident set) line of
// /proc/PID/status, in KiB.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// procPeakRSS is a live process's VmHWM, in KiB.
func procPeakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(raw))
}

// daemon is one running mpcgraphd.
type daemon struct {
	cmd     *exec.Cmd
	URL     string
	exited  chan struct{} // closed once the process is reaped
	exitErr error         // Wait's result, valid after exited closes
}

// listenPrefix starts the one stdout line the daemon prints once it is
// serving.
const listenPrefix = "mpcgraphd listening on "

// startDaemon boots mpcgraphd on an ephemeral loopback port with its
// log on stderrPath, and returns once the listen line is parsed. The
// caller must call kill (safe after stop) on every path.
func startDaemon(ctx context.Context, bin string, args, env []string, stderrPath string) (*daemon, error) {
	logf, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	// The child holds its own descriptor once started.
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = env
	cmd.Stderr = logf
	// A benchmark that dies without cleaning up must not leave a daemon
	// loading the host for the runs after it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	lines := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		line, _ := br.ReadString('\n')
		lines <- line
		// Nothing else is expected on stdout; drain it so a stray write
		// can never block the daemon. Wait must follow the last read.
		_, _ = io.Copy(io.Discard, br)
		d.exitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case line := <-lines:
		url, ok := strings.CutPrefix(strings.TrimSpace(line), listenPrefix)
		if !ok {
			d.kill()
			return nil, fmt.Errorf("mpcgraphd: unexpected first stdout line %q (log: %s)", line, stderrPath)
		}
		d.URL = url
		return d, nil
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("mpcgraphd: no listen line within 30s (log: %s)", stderrPath)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
}

// Pid is the daemon's process id.
func (d *daemon) Pid() int { return d.cmd.Process.Pid }

// wait waits up to timeout for the daemon to exit; reaped is false on
// timeout.
func (d *daemon) wait(timeout time.Duration) (reaped bool) {
	select {
	case <-d.exited:
		return true
	case <-time.After(timeout):
		return false
	}
}

// stop drains the daemon with SIGTERM and requires a clean exit 0.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("mpcgraphd: exited before SIGTERM: %v", d.exitErr)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("mpcgraphd: SIGTERM: %v", err)
	}
	if !d.wait(60 * time.Second) {
		d.kill()
		return errors.New("mpcgraphd: did not exit within 60s of SIGTERM")
	}
	if d.exitErr != nil {
		return fmt.Errorf("mpcgraphd: drain exit: %v", d.exitErr)
	}
	return nil
}

// kill force-stops and reaps the daemon if it is still running.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // an exit racing the signal is fine: the waiter still reaps
	if !d.wait(10 * time.Second) {
		fmt.Fprintf(os.Stderr, "perfbench: mpcgraphd pid %d not reaped after SIGKILL\n", d.Pid())
	}
}
