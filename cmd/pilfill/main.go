// Command pilfill runs performance-impact limited fill synthesis on a DEF
// layout (or a built-in synthetic testcase) and reports the delay impact and
// density control, optionally writing the filled layout back out as DEF or
// GDSII.
//
// Usage:
//
//	pilfill -case T1 -window 32 -r 4 -method ILP-II
//	pilfill -in chip.def -window 20 -r 2 -method Greedy -odef filled.def
//	pilfill -case T2 -method all -weighted
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"pilfill"
	"pilfill/internal/core"
	"pilfill/internal/layout"
	"pilfill/internal/obs"
	"pilfill/internal/server"
	"pilfill/internal/testcases"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pilfill: "+format+"\n", args...)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// jsonOutput is the -json document: session-level figures plus one report
// payload per method run, in the exact serialization pilfilld returns.
type jsonOutput struct {
	Layout   string                  `json:"layout"`
	Nets     int                     `json:"nets"`
	Budget   int                     `json:"budget"`
	PrepMS   float64                 `json:"prep_ms"`
	BudgetMS float64                 `json:"budget_ms"`
	Reports  []*server.ReportPayload `json:"reports"`
}

func main() {
	var (
		in       = flag.String("in", "", "input DEF (subset dialect); empty = use -case")
		lefPath  = flag.String("lef", "", "optional LEF supplying the layer definitions for -in")
		caseName = flag.String("case", "T1", "built-in testcase when -in is empty: T1 or T2")
		window   = flag.Int("window", 32, "window size in W units of 1.6 um (paper: 32 or 20)")
		r        = flag.Int("r", 4, "dissection factor r (paper: 2, 4, 8)")
		method   = flag.String("method", "ILP-II", "Normal|Greedy|ILP-I|ILP-II|DP|MarginalGreedy|GreedyCapped|all")
		weighted = flag.Bool("weighted", false, "optimize the sink-weighted objective (Table 2)")
		defName  = flag.Int("slackdef", 3, "slack column definition: 1, 2, or 3")
		seed     = flag.Int64("seed", 1, "random seed for budgeting and the Normal baseline")
		netCap   = flag.Float64("netcap", 0, "per-net added delay cap in ps (0 = off); ILP-II places what fits on tiles the cap makes infeasible")
		odef     = flag.String("odef", "", "write the filled layout as DEF to this path")
		ogds     = flag.String("ogds", "", "write the filled layout as GDSII to this path")
		osvg     = flag.String("osvg", "", "write the filled layout as SVG to this path")
		verify   = flag.Bool("verify", false, "run the fill DRC on the last result")
		timingN  = flag.Int("timing", 0, "print a timing report for the worst N nets of the last result")
		workers  = flag.Int("workers", 0, "solve tiles (and preprocess) concurrently with this many workers")
		grounded = flag.Bool("grounded", false, "model grounded (tied) fill instead of floating fill")
		noMemo   = flag.Bool("no-solve-memo", false, "disable the content-hash tile-solve memo (every tile solved from scratch)")
		phases   = flag.Bool("phases", false, "print the per-run phase timing breakdown (solve/evaluate/place)")
		timeout  = flag.Duration("timeout", 0, "abort the solves after this long (0 = no limit)")
		jsonOut  = flag.Bool("json", false, "emit the reports as JSON (the pilfilld serialization) instead of text")

		tracePath  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this path (view in Perfetto)")
		slowest    = flag.Int("slowest", 0, "print the N slowest tile solves (requires -trace)")
		slowTile   = flag.Duration("slowtile", 0, "log a warning for tile solves slower than this (requires -log-level)")
		logLevel   = flag.String("log-level", "", "enable structured logging on stderr at this level: debug|info|warn|error")
		logFormat  = flag.String("log-format", "text", "structured log format: text|json")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fail("%v", err)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "pilfill: cpu profile: %v\n", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memprofile); err != nil {
				fmt.Fprintf(os.Stderr, "pilfill: heap profile: %v\n", err)
			}
		}()
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(0)
	}
	var logger *slog.Logger
	if *logLevel != "" {
		level, err := obs.ParseLevel(*logLevel)
		if err != nil {
			fail("%v", err)
		}
		logger = obs.NewLogger(os.Stderr, level, *logFormat)
	}

	var l *layout.Layout
	var err error
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail("%v", err)
		}
		if *lefPath != "" {
			lf, err := os.Open(*lefPath)
			if err != nil {
				fail("%v", err)
			}
			l, err = pilfill.LoadLEFDEF(lf, f)
			lf.Close()
			f.Close()
			if err != nil {
				fail("%v", err)
			}
		} else {
			l, err = pilfill.LoadDEF(f)
			f.Close()
			if err != nil {
				fail("%v", err)
			}
		}
	} else {
		switch strings.ToUpper(*caseName) {
		case "T1":
			l, err = pilfill.GenerateT1()
		case "T2":
			l, err = pilfill.GenerateT2()
		default:
			fail("unknown case %q", *caseName)
		}
		if err != nil {
			fail("%v", err)
		}
	}

	opts := pilfill.Options{
		Window:            testcases.WindowNM(*window),
		R:                 *r,
		Rule:              pilfill.DefaultRuleT1T2(),
		Weighted:          *weighted,
		Def:               pilfill.SlackDef(*defName),
		Seed:              *seed,
		NetCap:            *netCap * 1e-12,
		Workers:           *workers,
		Grounded:          *grounded,
		NoSolveMemo:       *noMemo,
		Trace:             tracer,
		Logger:            logger,
		SlowTileThreshold: *slowTile,
	}
	s, err := pilfill.NewSession(l, opts)
	if err != nil {
		fail("%v", err)
	}
	if !*jsonOut {
		fmt.Printf("layout %s: %d nets, budget %d fill features, prep %.0f ms\n",
			l.Name, len(l.Nets), s.Budget.Total(), float64(s.PrepTime)/1e6)
		prep := s.Engine.Prep
		fmt.Printf("  prep phases: analyze %.1f ms, extract %.1f ms, build %.1f ms, budget %.1f ms",
			ms(prep.Analyze), ms(prep.Extract), ms(prep.Build), ms(s.BudgetTime))
		if cs := s.CacheStats(); cs.Hits+cs.Misses > 0 {
			fmt.Printf("; cap-table cache %d hits / %d misses (%d tables)", cs.Hits, cs.Misses, cs.Entries)
		}
		fmt.Println()
	}

	var methods []core.Method
	if strings.EqualFold(*method, "all") {
		methods = []core.Method{core.Normal, core.ILPI, core.ILPII, core.Greedy}
	} else {
		m, ok := server.ParseMethod(*method)
		if !ok {
			fail("unknown method %q", *method)
		}
		methods = []core.Method{m}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	out := jsonOutput{
		Layout:   l.Name,
		Nets:     len(l.Nets),
		Budget:   s.Budget.Total(),
		PrepMS:   ms(s.PrepTime),
		BudgetMS: ms(s.BudgetTime),
	}
	var last *pilfill.Report
	for _, m := range methods {
		rep, err := s.RunContext(ctx, m)
		if err != nil {
			fail("%v: %v", m, err)
		}
		if *jsonOut {
			out.Reports = append(out.Reports, server.BuildReport(s, rep))
		} else {
			fmt.Print(rep.Summary())
			if *phases {
				ph := rep.Result.Phases
				fmt.Printf("  phases: solve %.1f ms, evaluate %.1f ms, place %.1f ms (preprocess %.1f ms shared)\n",
					ms(ph.Solve), ms(ph.Evaluate), ms(ph.Place), ms(ph.Preprocess))
			}
		}
		last = rep
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail("%v", err)
		}
	}

	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail("%v", err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			fail("write trace: %v", err)
		}
		f.Close()
		if !*jsonOut {
			fmt.Printf("wrote %s (%d spans", *tracePath, len(tracer.Snapshot()))
			if d := tracer.Dropped(); d > 0 {
				fmt.Printf(", %d dropped by ring wrap", d)
			}
			fmt.Println("); open in ui.perfetto.dev or chrome://tracing")
		}
		if *slowest > 0 {
			tracer.WriteTopSlow(os.Stdout, "tile", *slowest)
		}
	}

	if *odef != "" && last != nil {
		f, err := os.Create(*odef)
		if err != nil {
			fail("%v", err)
		}
		if err := pilfill.SaveDEF(f, l, last.Result.Fill); err != nil {
			fail("%v", err)
		}
		f.Close()
		if !*jsonOut {
			fmt.Printf("wrote %s\n", *odef)
		}
	}
	if *ogds != "" && last != nil {
		f, err := os.Create(*ogds)
		if err != nil {
			fail("%v", err)
		}
		if err := pilfill.SaveGDS(f, l, last.Result.Fill, 100); err != nil {
			fail("%v", err)
		}
		f.Close()
		if !*jsonOut {
			fmt.Printf("wrote %s\n", *ogds)
		}
	}
	if *osvg != "" && last != nil {
		f, err := os.Create(*osvg)
		if err != nil {
			fail("%v", err)
		}
		if err := s.SaveSVG(f, last.Result.Fill); err != nil {
			fail("%v", err)
		}
		f.Close()
		if !*jsonOut {
			fmt.Printf("wrote %s\n", *osvg)
		}
	}
	if *verify && last != nil {
		vs := s.Verify(last)
		if len(vs) == 0 {
			fmt.Println("DRC clean")
		} else {
			for _, v := range vs {
				fmt.Printf("DRC: %v\n", v)
			}
			os.Exit(1)
		}
	}
	if *timingN > 0 && last != nil {
		tr, err := s.TimingReport(last)
		if err != nil {
			fail("%v", err)
		}
		tr.WriteText(os.Stdout, *timingN)
	}
}
