package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark reads process state from /proc and so runs on Linux only.

// residentMB returns the summed resident set size (VmRSS) of pids in MB.
func residentMB(pids ...int) (float64, error) {
	var total float64
	for _, pid := range pids {
		p := fmt.Sprintf("/proc/%d/status", pid)
		b, err := os.ReadFile(p)
		if err != nil {
			return 0, fmt.Errorf("resident set: %w", err)
		}
		kb := -1.0
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmRSS:" {
				if kb, err = strconv.ParseFloat(f[1], 64); err != nil {
					return 0, fmt.Errorf("resident set: %s: %w", p, err)
				}
				break
			}
		}
		if kb < 0 {
			return 0, fmt.Errorf("resident set: no VmRSS in %s", p)
		}
		total += kb / 1024
	}
	return total, nil
}

// rssEvery is how often sampleRSS reads the resident set. Readings at a
// fixed rate weigh every moment of a run alike: the simulator's resident
// set swings by 3x within a second, as collections and the runtime's
// return of memory to the system alternate.
const rssEvery = 10 * time.Millisecond

// sampleRSS reads the summed resident set of pids every rssEvery until the
// function it returns is called; that returns the readings in MB.
func sampleRSS(pids []int) func() ([]float64, error) {
	var (
		stop = make(chan struct{})
		done = make(chan struct{})
		out  []float64
		err  error
	)
	go func() {
		defer close(done)
		tk := time.NewTicker(rssEvery)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				var mb float64
				if mb, err = residentMB(pids...); err != nil {
					return
				}
				out = append(out, mb)
			}
		}
	}()
	return func() ([]float64, error) {
		close(stop)
		<-done
		if err == nil && len(out) == 0 {
			err = fmt.Errorf("resident set: no readings")
		}
		return out, err
	}
}

// procStat reads a process's state letter and parent pid from
// /proc/<pid>/stat; ok is false once the process is gone.
func procStat(pid int) (state string, ppid int, ok bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return "", 0, false
	}
	// The fields after the parenthesised command name: state, ppid, ...
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 2 {
		return "", 0, false
	}
	ppid, err = strconv.Atoi(f[1])
	return f[0], ppid, err == nil
}

// alive reports whether pid is a running (not zombie) process.
func alive(pid int) bool {
	state, _, ok := procStat(pid)
	return ok && state != "Z"
}

// childrenOf lists the running processes whose parent is pid.
func childrenOf(pid int) []int {
	dirs, _ := filepath.Glob("/proc/[0-9]*") // the pattern is valid
	var out []int
	for _, d := range dirs {
		child, err := strconv.Atoi(filepath.Base(d))
		if err != nil {
			continue
		}
		if state, ppid, ok := procStat(child); ok && state != "Z" && ppid == pid {
			out = append(out, child)
		}
	}
	return out
}

// setSubreaper makes this process adopt its orphaned descendants: the
// cdfsweepd server's worker processes outlive the server by a moment, and
// the benchmark must wait for every process it caused to start.
func setSubreaper() error {
	const prSetChildSubreaper = 36
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %w", errno)
	}
	return nil
}

// awaitExit waits until each pid has exited, killing any still running
// after grace, and reaps the ones this process adopted.
func awaitExit(pids []int, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for _, pid := range pids {
		for alive(pid) {
			if time.Now().After(deadline) {
				syscall.Kill(pid, syscall.SIGKILL)
			}
			time.Sleep(10 * time.Millisecond)
		}
		var ws syscall.WaitStatus
		syscall.Wait4(pid, &ws, syscall.WNOHANG, nil) // ECHILD: not ours to reap
	}
}
