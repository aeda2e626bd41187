// Command e2ebench is the repository's end-to-end benchmark: it runs
// complete IC and PIC jobs of the five applications through the public
// API and reports host-side cost (wall, CPU, peak memory, setup), or,
// with -trace 1, per-layer metrics from a separate traced run. See
// README.md in this directory for the workloads and metrics.
//
// Usage:
//
//	e2ebench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// Every sample runs in a fresh child process of this binary. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runDeadline bounds a whole run; children still running then are
// killed, so the process always exits well inside three minutes.
const runDeadline = 170 * time.Second

// minSetups is how many setup_s measurements a timed run takes at
// least, topping up with setup-only children when few samples fit.
const minSetups = 5

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 0, "input seed; 0 is the paper configuration")
	seconds := fs.Int("seconds", 10, "how long the run keeps starting samples")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead")
	child := fs.String("child", "", "internal: run one sample in this process (sample, setup or traced)")
	check := fs.Bool("check", false, "internal: check outputs after the sample")
	noTelemetry := fs.Bool("no-telemetry", false, "internal: drop the workload's own telemetry")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		rep, err := runSample(sampleOpts{
			workload: *workload, seed: *seed, mode: sampleMode(*child),
			check: *check, noTelemetry: *noTelemetry,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintln(os.Stderr, "e2ebench:", errUnknownWorkload(*workload))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be ≥ 1 and -trace 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	r := &runner{ctx: ctx, self: self, workload: *workload, seed: *seed}

	var res *result
	if *traced == 1 {
		res, err = r.traced()
	} else {
		res, err = r.timed(time.Duration(*seconds) * time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	env, _ := json.Marshal(map[string]any{"env": environment()})
	fmt.Println(string(env))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner starts the child processes of one run.
type runner struct {
	ctx      context.Context
	self     string
	workload string
	seed     int64
}

// spawn runs one sample in a fresh process and waits for it to exit.
func (r *runner) spawn(mode sampleMode, check, noTelemetry bool) (*report, error) {
	args := []string{"-child", string(mode), "-workload", r.workload, "-seed", strconv.FormatInt(r.seed, 10)}
	if check {
		args = append(args, "-check")
	}
	if noTelemetry {
		args = append(args, "-no-telemetry")
	}
	cmd := exec.CommandContext(r.ctx, r.self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s sample: %w", mode, err)
	}
	var rep report
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return nil, fmt.Errorf("%s sample output: %w", mode, err)
	}
	if len(rep.Errors) > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s sample failed: %s\n", mode, strings.Join(rep.Errors, "; "))
	}
	return &rep, nil
}

// timed takes samples while the next one, predicted to last as long as
// the previous one, still ends within budget; time spent checking
// outputs does not count against it. The first sample (there is always
// one) also checks outputs. It then tops up setup measurements and
// reports the medians of the end-to-end metrics.
func (r *runner) timed(budget time.Duration) (*result, error) {
	start := time.Now()
	res := &result{Correct: true}
	var walls, cpus, rss, setups []float64
	var digest string
	var checking, next time.Duration
	for i := 0; i == 0 || time.Since(start)-checking+next <= budget; i++ {
		began := time.Now()
		rep, err := r.spawn(modeSample, i == 0, false)
		if err != nil {
			return nil, err
		}
		check := time.Duration(rep.CheckSeconds * float64(time.Second))
		checking += check
		next = time.Since(began) - check
		fmt.Fprintf(os.Stderr, "sample %d: wall %.3fs cpu %.3fs rss %.1fMB setup %.3fs\n", i, rep.Wall, rep.CPU, rep.PeakRSS, rep.Setup)
		res.Attempted += rep.Jobs
		res.Failed += rep.Failed
		if i == 0 {
			digest = rep.Digest
		} else if rep.Digest != digest {
			fmt.Fprintln(os.Stderr, "e2ebench: samples of one seed computed different outputs")
			res.Correct = false
		}
		walls, cpus, rss = append(walls, rep.Wall), append(cpus, rep.CPU), append(rss, rep.PeakRSS)
		setups = append(setups, rep.Setup)
	}
	for len(setups) < minSetups {
		rep, err := r.spawn(modeSetup, false, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.Setup)
	}
	res.Correct = res.Correct && res.Failed == 0
	res.Metrics = map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {median(rss), "MB"},
		"setup_s":     {median(setups), "s"},
	}
	return res, nil
}

// traced runs one untraced sample (checked), one traced sample and, for
// the chaos workload, one sample with the workload's telemetry off. The
// traced sample supplies the timings, the untraced one the counts and
// Go runtime figures; the digests of all must agree.
func (r *runner) traced() (*result, error) {
	plain, err := r.spawn(modeSample, true, false)
	if err != nil {
		return nil, err
	}
	tr, err := r.spawn(modeTraced, false, false)
	if err != nil {
		return nil, err
	}
	reps := []*report{plain, tr}
	layers := tr.Layers
	layers["bench.trace_overhead"] = ratio(tr.Wall, plain.Wall)
	if r.workload == "chaos-pagerank" {
		off, err := r.spawn(modeSample, false, true)
		if err != nil {
			return nil, err
		}
		reps = append(reps, off)
		layers["telemetry.overhead_frac"] = ratio(plain.Wall, off.Wall) - 1
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, rep := range reps {
		res.Attempted += rep.Jobs
		res.Failed += rep.Failed
		if rep.Digest != plain.Digest {
			fmt.Fprintln(os.Stderr, "e2ebench: traced and untraced runs computed different outputs")
			res.Correct = false
		}
	}
	for k, v := range plain.Layers {
		if strings.HasPrefix(k, "go.") {
			layers[k] = v
		} else if layers[k] != v {
			fmt.Fprintf(os.Stderr, "e2ebench: %s differs between traced (%v) and untraced (%v) runs\n", k, layers[k], v)
			res.Correct = false
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	return res, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// environment records what a result set was measured on.
func environment() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}
