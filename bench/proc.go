package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildTools compiles the named commands of the repository at root into
// dir with the go toolchain; it is not part of any measurement.
func buildTools(root, dir string, names ...string) error {
	if len(names) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w\n%s", strings.Join(names, " "), err, stderr.String())
	}
	return nil
}

// childRun is what one finished child process cost.
type childRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS float64       // MB
}

// runChild runs a program to completion, discarding its standard output,
// and reports its cost. A non-zero exit is an error carrying the child's
// stderr.
func runChild(prog string, args ...string) (childRun, error) {
	cmd := exec.Command(prog, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return childRun{}, fmt.Errorf("%s %s: %w\n%s", filepath.Base(prog), strings.Join(args, " "), err, lastLines(stderr.String(), 5))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return childRun{
		wall:   wall,
		cpu:    time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)),
		maxRSS: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// selfCPU returns this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// resetPeakRSS lowers this process's peak RSS to its current RSS (Linux
// 4.0 and later), so that procPeakRSS then reports the peak of what
// follows alone.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// clockTick is the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 10 * time.Millisecond

// procCPU returns a live process's CPU time so far from /proc.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; fields after its closing
	// parenthesis are space-separated. utime and stime are fields 14, 15.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPeakRSS returns a live process's peak RSS in MB from /proc.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
