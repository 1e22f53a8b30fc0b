// unit.go is the child side of the benchmark. Every unit — one layout
// through the session path, or one chip through the local or clustered chip
// path — runs in a fresh process, so process-wide caches (cap.Shared,
// core.SharedSolveMemo) start cold as in a CLI run, and the parent reads the
// unit's CPU time and peak RSS from its rusage.
//
// A unit prints "ready" once it can ingest (for a cluster unit: once its
// worker process answers /readyz), then runs from reading the input DEF to
// the filled DEF fsynced on disk, then prints one unitResult as JSON.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pilfill"
	"pilfill/internal/cluster"
	"pilfill/internal/def"
	"pilfill/internal/jobqueue"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
	"pilfill/internal/server"
	"pilfill/internal/testcases"
)

// Unit paths: how one unit drives the program.
const (
	pathSession = "session" // pilfill.LoadDEF -> NewSession -> Run(ILP-II) -> SaveDEF
	pathChip    = "chip"    // cluster.PrepareChip -> RunChipLocal -> def.WriteWithFill
	pathCluster = "cluster" // cluster.PrepareChip -> Coordinator.RunChip on a worker process -> def.WriteWithFill
)

// clusterWorkers is the number of worker processes a cluster unit starts.
// With two, rendezvous placement puts a chip's four regions 2/2, 3/1 or
// 4/0 on the workers depending on their content hashes, so the unit's wall
// time depended more on which inputs a seed drew (0.48 s to 0.74 s within
// one seed) than on the program, and a 2-core shared host slowed whichever
// worker shared a core with the unit's other processes. One worker keeps
// the whole cluster path — scatter, polling, region payloads, worker-side
// preparation, merge — at one solve thread.
const clusterWorkers = 1

// Child roles are selected through the environment so the same binary — or
// the package's test binary — can re-exec itself.
const (
	roleEnv    = "PILFILL_BENCH_ROLE"
	unitEnv    = "PILFILL_BENCH_UNIT"
	roleUnit   = "unit"
	roleWorker = "worker"
)

// unitSpec tells a child what to run.
type unitSpec struct {
	Path     string `json:"path"`
	In       string `json:"in"`
	Out      string `json:"out"`
	GX       int    `json:"gx,omitempty"` // chip region grid columns (GY is 1)
	Trace    bool   `json:"trace,omitempty"`
	TraceOut string `json:"trace_out,omitempty"` // Chrome trace of a traced unit
}

// unitResult is what a child reports. Layers (per-layer figures by metric
// name) and Coverage (the share of the wall the spans' self times cover)
// are set by traced units only.
type unitResult struct {
	WallS     float64 `json:"wall_s"`
	Tiles     int     `json:"tiles"`
	FillCount int     `json:"fill_count"`
	FillHash  string  `json:"fill_hash"`
	// DelayBits is the float64 bit pattern of the unweighted added delay in
	// seconds, so equality checks are exact.
	DelayBits string `json:"delay_bits"`
	// PeakRSSMB is the peak RSS of the unit's processes, summed: each reads
	// its own high-water mark, because a child's rusage maxrss starts from
	// its parent's RSS at exec. WorkerCPUS is the cluster workers' CPU time;
	// the parent adds the unit process's own from its rusage.
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	WorkerCPUS float64            `json:"worker_cpu_s,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Coverage   float64            `json:"coverage,omitempty"`
}

func (r *unitResult) delayPS() float64 {
	var bits uint64
	fmt.Sscanf(r.DelayBits, "%x", &bits)
	return math.Float64frombits(bits) * 1e12
}

// newResult fills the identity fields of a result from a fill stream.
func newResult(wall time.Duration, tiles int, unweighted float64, fills [][2]int) *unitResult {
	fh := server.NewFillHasher()
	for _, f := range fills {
		fh.Add(f[0], f[1])
	}
	return &unitResult{
		WallS:     wall.Seconds(),
		Tiles:     tiles,
		FillCount: fh.Count(),
		FillHash:  fh.Sum(),
		DelayBits: fmt.Sprintf("%016x", math.Float64bits(unweighted)),
	}
}

// sessionOptions are the pilfill CLI defaults: W = 32, r = 4, the T1/T2
// fill rule, seed 1, a probed target density, serial solve.
func sessionOptions() pilfill.Options {
	return pilfill.Options{Window: testcases.WindowNM(32), R: 4, Rule: pilfill.DefaultRuleT1T2(), Seed: 1}
}

// chipRule is the chip fill rule (testcases.Chip's and ChipJob's default).
var chipRule = layout.FillRule{Feature: 150, Gap: 50, Buffer: 150}

// chipJob is the chip workloads' job: ILP-II with a 0.0005 ps net cap, an
// elliptic FFT budget to effective density 0.3 under a 0.5 cap, one solve
// thread per region. Every field ChipJob would default is set explicitly,
// so the traced path can read the job as PrepareChip sees it.
func chipJob(defText string, gx int) cluster.ChipJob {
	return cluster.ChipJob{
		DEF:      defText,
		WindowNM: 12800, R: 4,
		RuleFeatureNM: chipRule.Feature, RuleGapNM: chipRule.Gap, RuleBufferNM: chipRule.Buffer,
		GX: gx, GY: 1,
		Kernel: "elliptic", TargetMin: 0.3, MaxDensity: 0.5,
		Method:  "ILP-II",
		Options: server.SubmitOptions{NetCapPS: 0.0005, Seed: 1, Workers: 1},
	}
}

// unitMain is the unit role's entry point.
func unitMain() error {
	var spec unitSpec
	if err := json.Unmarshal([]byte(os.Getenv(unitEnv)), &spec); err != nil {
		return fmt.Errorf("unit spec: %w", err)
	}
	ctx := context.Background()
	var env *clusterEnv
	if spec.Path == pathCluster {
		var err error
		if env, err = startWorkers(ctx, clusterWorkers); err != nil {
			return err
		}
		defer env.stop()
	}
	fmt.Println("ready")

	var (
		res *unitResult
		err error
	)
	switch {
	case spec.Path == pathSession && spec.Trace:
		res, err = traceSession(ctx, &spec)
	case spec.Path == pathSession:
		res, err = runSession(&spec)
	case spec.Trace:
		res, err = traceChip(ctx, &spec, env)
	case spec.Path == pathChip || spec.Path == pathCluster:
		res, err = runChip(ctx, &spec, env)
	default:
		err = fmt.Errorf("unknown unit path %q", spec.Path)
	}
	if err != nil {
		return err
	}
	if env != nil {
		if res.WorkerCPUS, res.PeakRSSMB, err = env.stop(); err != nil {
			return err
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.PeakRSSMB += peak
	return json.NewEncoder(os.Stdout).Encode(res)
}

// writeFile writes a result file the way a CLI would and fsyncs it, so the
// timed span ends with the fill on disk.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadDEF(path string) (*layout.Layout, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pilfill.LoadDEF(f)
}

// runSession is the session unit: the pilfill CLI's path.
func runSession(spec *unitSpec) (*unitResult, error) {
	start := time.Now()
	l, err := loadDEF(spec.In)
	if err != nil {
		return nil, err
	}
	s, err := pilfill.NewSession(l, sessionOptions())
	if err != nil {
		return nil, err
	}
	rep, err := s.Run(pilfill.ILPII)
	if err != nil {
		return nil, err
	}
	if err := writeFile(spec.Out, func(w io.Writer) error { return pilfill.SaveDEF(w, l, rep.Result.Fill) }); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	return newResult(wall, rep.Result.Tiles, rep.Result.Unweighted, fillSites(rep.Result.Fill)), nil
}

func fillSites(fs *layout.FillSet) [][2]int {
	out := make([][2]int, len(fs.Fills))
	for i, f := range fs.Fills {
		out[i] = [2]int{f.Col, f.Row}
	}
	return out
}

// runChip is the chip unit: PrepareChip, then RunChipLocal in process or
// Coordinator.RunChip against the cluster workers, then the merged fill
// written as DEF.
func runChip(ctx context.Context, spec *unitSpec, env *clusterEnv) (*unitResult, error) {
	start := time.Now()
	data, err := os.ReadFile(spec.In)
	if err != nil {
		return nil, err
	}
	prep, err := cluster.PrepareChip(chipJob(string(data), spec.GX))
	if err != nil {
		return nil, err
	}
	var rep *cluster.MergedReport
	if env != nil {
		rep, err = env.coord.RunChip(ctx, prep)
	} else {
		rep, err = cluster.RunChipLocal(ctx, prep)
	}
	if err != nil {
		return nil, err
	}
	if err := writeChipDEF(spec.Out, prep, rep); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	return newResult(wall, rep.Tiles, rep.Unweighted, rep.Fills), nil
}

// writeChipDEF writes the chip layout with its merged fill stream.
func writeChipDEF(path string, prep *cluster.Prep, rep *cluster.MergedReport) error {
	grid, err := layout.NewSiteGrid(prep.Layout.Die, prep.Rule)
	if err != nil {
		return err
	}
	rects := make([]def.FillRect, len(rep.Fills))
	for i, f := range rep.Fills {
		rects[i] = def.FillRect{Layer: prep.Job.Layer, Rect: grid.SiteRect(f[0], f[1])}
	}
	return writeFile(path, func(w io.Writer) error { return def.WriteWithFill(w, prep.Layout, rects) })
}

// clusterEnv is a cluster unit's worker processes and the coordinator that
// drives them. Workers are addressed as http://worker-N and the HTTP
// transport dials each name's real loopback port, so rendezvous placement —
// which hashes the worker URLs — depends on the input alone, never on which
// ports the kernel handed out.
type clusterEnv struct {
	coord     *cluster.Coordinator
	reg       *obs.Registry
	transport *http.Transport
	counter   *countingTransport
	urls      []string
	procs     []*exec.Cmd
	stdins    []io.WriteCloser
	stdouts   []*bufio.Reader
	stopped   bool
}

// startWorkers launches n worker processes, waits until each answers
// /readyz, and builds the coordinator.
func startWorkers(ctx context.Context, n int) (*clusterEnv, error) {
	env := &clusterEnv{reg: obs.NewRegistry()}
	if err := env.start(ctx, n); err != nil {
		env.stop()
		return nil, err
	}
	return env, nil
}

func (env *clusterEnv) start(ctx context.Context, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	addrs := map[string]string{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), roleEnv+"="+roleWorker)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("start worker: %w", err)
		}
		env.procs = append(env.procs, cmd)
		env.stdins = append(env.stdins, stdin)
		env.stdouts = append(env.stdouts, bufio.NewReader(stdout))
		line, err := env.stdouts[i].ReadString('\n')
		if err != nil {
			return fmt.Errorf("worker %d address: %w", i, err)
		}
		name := fmt.Sprintf("worker-%d", i)
		addrs[name+":80"] = strings.TrimSpace(line)
		env.urls = append(env.urls, "http://"+name)
	}
	var dialer net.Dialer
	env.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			hostPort, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("no worker at %s", addr)
			}
			return dialer.DialContext(ctx, network, hostPort)
		},
		MaxIdleConnsPerHost: 8,
	}
	env.counter = &countingTransport{base: env.transport}
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range env.urls {
		for !workerReady(ctx, env.scrapeClient(), u) {
			if time.Now().After(deadline) {
				return fmt.Errorf("worker %s not ready after 10s", u)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	env.coord, err = cluster.New(cluster.Config{
		Workers:  env.urls,
		Client:   &http.Client{Transport: env.counter},
		Registry: env.reg,
	})
	return err
}

// scrapeClient reaches the workers without being counted as coordinator
// traffic.
func (e *clusterEnv) scrapeClient() *http.Client { return &http.Client{Transport: e.transport} }

func workerReady(ctx context.Context, c *http.Client, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop closes the coordinator's connections and every worker's stdin —
// their signal to drain and exit — waits for the workers, and returns their
// summed CPU seconds and peak RSS in MB (each worker prints its own on the
// way out). Calling it again is a no-op.
func (e *clusterEnv) stop() (cpuS, rssMB float64, err error) {
	if e.stopped {
		return 0, 0, nil
	}
	e.stopped = true
	if e.transport != nil {
		e.transport.CloseIdleConnections()
	}
	for _, in := range e.stdins {
		in.Close()
	}
	for i, cmd := range e.procs {
		var peak float64
		if _, serr := fmt.Fscanf(e.stdouts[i], "peak_rss_mb %g\n", &peak); serr != nil && err == nil {
			err = fmt.Errorf("worker %d peak RSS: %w", i, serr)
		}
		if werr := cmd.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
		cpuS += cpuSeconds(cmd.ProcessState)
		rssMB += peak
	}
	return cpuS, rssMB, err
}

// cpuSeconds is a finished process's user plus system CPU time.
func cpuSeconds(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if f := strings.Fields(ln); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// countingTransport counts the coordinator's HTTP requests and the bytes
// of their request and response bodies.
type countingTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
	bytes    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if req.ContentLength > 0 {
		t.bytes.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// workerMain is the worker role: a pilfilld configured as cmd/pilfilld
// builds it on this host (one queue worker, 10-minute job timeout), on a
// loopback port it prints, serving until its stdin closes; it then drains
// and prints its peak RSS.
func workerMain() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Queue:        jobqueue.Config{Capacity: 32, Workers: 1, DefaultTimeout: 10 * time.Minute},
		MaxBodyBytes: 64 << 20,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Println(ln.Addr().String())
	io.Copy(io.Discard, os.Stdin)

	srv.SetReady(false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx)
	if herr := hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-serveErr; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	fmt.Printf("peak_rss_mb %g\n", peak)
	return nil
}
