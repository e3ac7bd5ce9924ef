package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command may hold spaces and parentheses; utime (14) and stime
	// (15) are counted from the last ')'.
	stat := "4242 (my (odd) proc) S 1 4242 4242 0 -1 4194560 1523 0 0 0 731 269 0 0 20 0 9 0 12345 1234567 890 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 731+269 {
		t.Errorf("ticks = %d, want 1000", got)
	}
	if d := ticksToDuration(got); d != 10*time.Second {
		t.Errorf("duration = %v, want 10s", d)
	}
	for _, bad := range []string{"4242 no-parens S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 4242 4242 0 -1 0 0 0 0 0 a 1"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestProcCPUOfSelf(t *testing.T) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if _, err := procPeakRSS(os.Getpid()); err != nil {
		t.Fatal(err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tmpcgraphd\nVmPeak:\t 1234 kB\nVmHWM:\t  116736 kB\nVmRSS:\t 100000 kB\n"
	kib, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if kib != 116736 || kibToMiB(kib) != 114 {
		t.Errorf("VmHWM = %d KiB (%v MiB), want 116736 KiB (114 MiB)", kib, kibToMiB(kib))
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tx kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a malformed status", bad)
		}
	}
}

func TestRusageToUsage(t *testing.T) {
	ru := &syscall.Rusage{
		Utime:  syscall.Timeval{Sec: 1, Usec: 500000},
		Stime:  syscall.Timeval{Sec: 0, Usec: 250000},
		Maxrss: 2048, // KiB on Linux
	}
	u := rusageToUsage(ru)
	if u.CPU != 1750*time.Millisecond {
		t.Errorf("CPU = %v, want 1.75s (user + system)", u.CPU)
	}
	if kibToMiB(u.MaxRSSKiB) != 2 {
		t.Errorf("max RSS = %v MiB, want 2", kibToMiB(u.MaxRSSKiB))
	}
}

func TestRunCLIReportsChildUsage(t *testing.T) {
	run, err := runCLI(context.Background(), "/bin/sh", []string{"-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; echo done"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(run.Stdout)) != "done" || run.Usage.CPU <= 0 || run.Usage.MaxRSSKiB <= 0 || run.Wall <= 0 {
		t.Errorf("run = %+v, want the child's stdout, CPU, peak RSS and wall", run)
	}
	if _, err := runCLI(context.Background(), "/bin/sh", []string{"-c", "echo oops >&2; exit 3"}, nil); err == nil || !strings.Contains(err.Error(), "oops") {
		t.Errorf("a failing child returned %v, want an error carrying its stderr", err)
	}
}

func TestChildEnvScrubsTuningVariables(t *testing.T) {
	for _, k := range scrubbedEnv {
		t.Setenv(k, "x")
	}
	t.Setenv("PERFBENCH_KEEP", "1")
	env := childEnv("/scratch")
	joined := "\n" + strings.Join(env, "\n") + "\n"
	for _, k := range []string{"MPCGRAPHD_FAILPOINTS", "GOGC", "GOMAXPROCS", "GODEBUG"} {
		if strings.Contains(joined, "\n"+k+"=") {
			t.Errorf("%s survived into the child environment", k)
		}
	}
	if !strings.Contains(joined, "\nPERFBENCH_KEEP=1\n") || !strings.Contains(joined, "\nTMPDIR=/scratch\n") {
		t.Errorf("child env %v lost an unrelated variable or the run's TMPDIR", env)
	}
}

// fakeDaemon writes a script that prints the daemon's listen line and
// then behaves as onTerm says when it receives SIGTERM.
func fakeDaemon(t *testing.T, onTerm string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake-daemon")
	script := "#!/bin/sh\ntrap '" + onTerm + "' TERM\necho 'mpcgraphd listening on http://127.0.0.1:1'\nwhile :; do sleep 0.05; done\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDaemonLifecycle(t *testing.T) {
	ctx := context.Background()
	log := filepath.Join(t.TempDir(), "d.log")

	d, err := startDaemon(ctx, fakeDaemon(t, "exit 0"), nil, nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if d.URL != "http://127.0.0.1:1" {
		t.Errorf("URL = %q, want it parsed from the first stdout line", d.URL)
	}
	if err := d.stop(); err != nil {
		t.Errorf("clean drain: %v", err)
	}
	d.kill() // a no-op once reaped

	d, err = startDaemon(ctx, fakeDaemon(t, "exit 3"), nil, nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.stop(); err == nil {
		t.Error("a drain exiting 3 was accepted")
	}

	d, err = startDaemon(ctx, fakeDaemon(t, ""), nil, nil, log)
	if err != nil {
		t.Fatal(err)
	}
	d.kill()
	if !d.wait(time.Second) {
		t.Error("kill returned before the daemon was reaped")
	}

	bad := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(bad, []byte("#!/bin/sh\necho hello\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := startDaemon(ctx, bad, nil, nil, log); err == nil {
		t.Error("a daemon without the listen line was accepted")
	}
}
