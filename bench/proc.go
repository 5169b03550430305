package main

import (
	"bufio"
	"encoding/json"
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

// childEnv carries a child process's config (JSON). A batch workload runs
// in a child so its package-wide memos (topology analyses, pds traces)
// start cold in every set-up and its peak RSS is its own.
const childEnv = "IVORY_BENCH_CHILD"

// attachToParent kills the process if the harness dies first, so an
// interrupted run never leaves a child or an ivoryd behind.
func attachToParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) of a live
// process ("self" or a pid) in MiB. The rusage maxrss of a child is no
// use here: across fork and exec it inherits the parent's high-water mark.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// runBatchWorkload runs the workload in cfg.SetupReps child processes one
// after another. Each child generates the inputs and warms up (its start
// to ready is one set-up time), then measures an equal slice of the run,
// continuing the op stream where the previous child stopped. Latencies
// pool across the slices; set-up time and peak RSS are medians over them.
func runBatchWorkload(cfg config, stderr io.Writer) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	total := &outcome{}
	var rss []float64
	c := cfg
	c.Seconds = cfg.Seconds / float64(cfg.SetupReps)
	for rep := 0; rep < cfg.SetupReps; rep++ {
		enc, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), childEnv+"="+string(enc))
		cmd.Stderr = stderr
		attachToParent(cmd)
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		rd := bufio.NewReader(out)
		line, rerr := rd.ReadString('\n')
		ready := time.Since(start)
		rest, _ := io.ReadAll(rd)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up failed in child (%v)", werr)
		}
		if werr != nil {
			return nil, fmt.Errorf("child: %w", werr)
		}
		var o outcome
		if err := json.Unmarshal(rest, &o); err != nil {
			return nil, fmt.Errorf("child result: %w", err)
		}
		total.SetupS = append(total.SetupS, ready.Seconds())
		rss = append(rss, o.RSSMB)
		total.Digest, total.Layers, total.Traced = o.Digest, o.Layers, o.Traced
		total.Untraced.add(o.Untraced)
		c.Start = o.End
	}
	total.Untraced.summarize()
	if total.Traced != nil {
		total.Traced.summarize()
	}
	total.RSSMB = median(rss)
	return total, nil
}

// childMain is the body of a batch-workload child: generate inputs, warm
// up, report ready, then run the measured phases and print the outcome.
func childMain(spec string, stdout, stderr io.Writer) int {
	var cfg config
	if err := json.Unmarshal([]byte(spec), &cfg); err != nil {
		logf(stderr, "bench child: %v", err)
		return 2
	}
	b, err := newBatch(cfg.Workload, cfg.Seed)
	if err == nil {
		err = b.warmUp()
	}
	if err != nil {
		logf(stderr, "bench child: %s set-up: %v", cfg.Workload, err)
		return 1
	}
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return 1
	}
	o, err := runBatchPhases(b, cfg, stderr)
	if err == nil {
		o.RSSMB, err = peakRSSMB("self")
	}
	if err != nil {
		logf(stderr, "bench child: %s: %v", cfg.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(o); err != nil {
		logf(stderr, "bench child: %v", err)
		return 1
	}
	return 0
}

// daemon is one running ivoryd process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process's stdout reaches EOF
}

// startDaemon launches ivoryd on a free loopback port and waits for its
// listening line.
func startDaemon(bin string, stderr io.Writer, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = stderr
	attachToParent(cmd)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ivoryd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ivoryd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.done:
		_ = cmd.Wait()
		return nil, errors.New("ivoryd exited before listening")
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-d.done
		_ = cmd.Wait()
		return nil, errors.New("ivoryd did not start listening within 10s")
	}
}

// stop reads the process's peak RSS (MiB), then sends SIGTERM and waits
// for the drain.
func (d *daemon) stop() (float64, error) {
	rss, rerr := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	if err := d.cmd.Wait(); err != nil {
		return rss, err
	}
	return rss, rerr
}

// fleet is the set of ivoryd processes a server workload runs against:
// front takes the load generator's requests; workers back a coordinator.
type fleet struct {
	front   *daemon
	workers []*daemon
}

// stop drains the front first (a coordinator finishes its shards), then
// the workers, and returns the summed peak RSS.
func (f *fleet) stop() (float64, error) {
	var total float64
	var first error
	for _, d := range append([]*daemon{f.front}, f.workers...) {
		if d == nil {
			continue
		}
		rss, err := d.stop()
		total += rss
		if err != nil && first == nil {
			first = fmt.Errorf("ivoryd drain: %w", err)
		}
	}
	return total, first
}
