// Command bench is the repository's benchmark: it times four workloads end
// to end, from reading an input DEF to the filled DEF fsynced on disk, and
// with -trace 1 it splits the same work into per-layer figures. See
// README.md for the workloads, metrics and how to compare two commits.
//
//	bench -workload chip-jittered -seed 3 -seconds 25 -trace 0
//	bench                              # every workload, metrics printed by name
//	bench -o runs.json -label A        # also append the run records to runs.json
//	bench compare A.json B.json        # apply BENCHMARK.json's bounds
//	bench record -seeds 10 -o expected.json
//
// With -workload the last line of standard output is the run's JSON
// summary ({"correct", "attempted", "failed", "metrics"}). The exit code is
// 1 when any output failed its checks, 2 when the run could not be set up.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	switch os.Getenv(roleEnv) {
	case roleUnit:
		exitOn(unitMain())
	case roleWorker:
		exitOn(workerMain())
	}
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			exitOn(compareMain(os.Args[2:]))
		case "record":
			exitOn(recordMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// benchMain runs one workload (-workload) or all of them and returns the
// exit code.
func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		name     = fs.String("workload", "", "workload to run (empty = all, one after another)")
		seed     = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = fs.Float64("seconds", 25, "unit time one run measures, in seconds")
		trace    = fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		quick    = fs.Bool("quick", false, "tiny inputs (for tests)")
		out      = fs.String("o", "", "append the run records, with a host block, to this JSON file")
		label    = fs.String("label", "", "label stored with each run record (bench compare FILE#LABEL selects it)")
		workDir  = fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for inputs and outputs")
		traceDir = fs.String("trace-dir", "", "keep each workload's last Chrome trace here (traced runs)")
	)
	fs.Parse(args)

	run := func() ([]*runRecord, error) {
		list := workloads
		if *name != "" {
			w, ok := findWorkload(*name)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", *name)
			}
			list = []workload{w}
		}
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(*workDir, 0o755); err != nil {
			return nil, err
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick,
			exe: exe, workDir: *workDir, traceDir: *traceDir}
		var recs []*runRecord
		for _, w := range list {
			rec, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			rec.Label = *label
			recs = append(recs, rec)
		}
		return recs, nil
	}
	recs, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *out != "" {
		host := readHost()
		for _, r := range recs {
			r.Host = host
		}
		if err := appendRuns(*out, recs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	correct := true
	for _, r := range recs {
		correct = correct && r.Correct
		for _, e := range r.Errors {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.Workload, e)
		}
	}
	if *name != "" {
		printSummary(os.Stderr, recs)
		r := recs[0]
		line, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		fmt.Println(string(line))
	} else {
		printSummary(os.Stdout, recs)
	}
	if !correct {
		return 1
	}
	return 0
}

// printSummary prints every metric by name with its unit, then the detail
// figures, one table row each.
func printSummary(w *os.File, recs []*runRecord) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\t")
	for _, r := range recs {
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		for _, m := range defs {
			if v, ok := r.Metrics[m.Name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t\n", r.Workload, m.Name, v.Value, v.Unit)
			}
		}
		keys := make([]string, 0, len(r.Detail))
		for k := range r.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(tw, "%s\t(%s)\t%.6g\t\t\n", r.Workload, k, r.Detail[k])
		}
		fmt.Fprintf(tw, "%s\t(correct)\t%v\t%d/%d failed\t\n", r.Workload, r.Correct, r.Failed, r.Attempted)
	}
	tw.Flush()
}

// resultDoc is the file -o appends to and bench compare reads.
type resultDoc struct {
	Runs []*runRecord `json:"runs"`
}

func readDoc(path string) (*resultDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func appendRuns(path string, recs []*runRecord) error {
	doc, err := readDoc(path)
	if errors.Is(err, os.ErrNotExist) {
		doc, err = &resultDoc{}, nil
	}
	if err != nil {
		return err
	}
	doc.Runs = append(doc.Runs, recs...)
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostInfo names the machine and build that produced a run.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUModel   string `json:"cpu_model"`
	RAMMB      int    `json:"ram_mb"`
	Commit     string `json:"commit"`
}

func readHost() *hostInfo {
	h := &hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/meminfo"); err == nil {
		for _, ln := range strings.Split(string(data), "\n") {
			if f := strings.Fields(ln); len(f) >= 2 && f[0] == "MemTotal:" {
				kb, _ := strconv.Atoi(f[1])
				h.RAMMB = kb / 1024
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// recordMain writes expected.json: for seeds 1..N, every input family's
// pool run once through its local path (a chip family through
// RunChipLocal, so cluster-jittered is held to the same record), each
// output passing the full check first.
func recordMain(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	seeds := fs.Int("seeds", 10, "record seeds 1..N")
	out := fs.String("o", "expected.json", "output file")
	workDir := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory")
	fs.Parse(args)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workDir, "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	all := map[string]map[string][]expectedUnit{}
	for _, w := range workloads {
		if all[w.Family] != nil {
			continue
		}
		path := pathChip
		if w.Family == familyT3 {
			path = pathSession
		}
		all[w.Family] = map[string][]expectedUnit{}
		for seed := int64(1); seed <= int64(*seeds); seed++ {
			inputs, err := writeInputs(dir, w.Family, fullSizes, seed, w.Pool)
			if err != nil {
				return err
			}
			v := newVerifier(unitRule(path), inputs, nil)
			for k, in := range inputs {
				spec := unitSpec{Path: path, In: in, Out: filepath.Join(dir, "out.def"), GX: fullSizes.gx(w.Family)}
				u, err := runUnit(context.Background(), exe, spec)
				if err == nil {
					err = v.check(k, u, spec.Out)
				}
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Family, seed, err)
				}
				key := strconv.FormatInt(seed, 10)
				all[w.Family][key] = append(all[w.Family][key], expectedUnit{u.Tiles, u.FillHash, u.DelayBits})
			}
			fmt.Fprintf(os.Stderr, "record: %s seed %d done\n", w.Family, seed)
		}
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(data, '\n'), 0o644)
}
