package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pilfill/internal/core"
	"pilfill/internal/jobqueue"
	"pilfill/internal/obs"
	"pilfill/internal/server"
)

// newWorker starts an in-process pilfilld worker. wrap, when non-nil,
// decorates the handler (fault injection).
func newWorker(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Queue: jobqueue.Config{Capacity: 64, Workers: 2},
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ts
}

func newCluster(t *testing.T, n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = newWorker(t, nil).URL
	}
	return urls
}

// assertBitIdentical holds two merged reports to the acceptance bar: FNV fill
// and per-net hashes equal, float totals equal bit for bit, and every
// counter equal.
func assertBitIdentical(t *testing.T, label string, got, want *MergedReport) {
	t.Helper()
	if got.FillHash != want.FillHash || got.FillCount != want.FillCount {
		t.Fatalf("%s: fill stream %s/%d, want %s/%d", label,
			got.FillHash, got.FillCount, want.FillHash, want.FillCount)
	}
	if got.PerNetHash != want.PerNetHash {
		t.Fatalf("%s: per-net hash %s, want %s", label, got.PerNetHash, want.PerNetHash)
	}
	if math.Float64bits(got.Unweighted) != math.Float64bits(want.Unweighted) ||
		math.Float64bits(got.Weighted) != math.Float64bits(want.Weighted) {
		t.Fatalf("%s: delay totals %x/%x, want %x/%x", label,
			math.Float64bits(got.Unweighted), math.Float64bits(got.Weighted),
			math.Float64bits(want.Unweighted), math.Float64bits(want.Weighted))
	}
	if got.Tiles != want.Tiles || got.Requested != want.Requested || got.Placed != want.Placed ||
		got.ILPNodes != want.ILPNodes || got.LPPivots != want.LPPivots ||
		got.Repaired != want.Repaired || got.Dropped != want.Dropped {
		t.Fatalf("%s: counters differ: got %+v want %+v", label, got, want)
	}
	if len(got.Fills) != len(want.Fills) {
		t.Fatalf("%s: %d fills, want %d", label, len(got.Fills), len(want.Fills))
	}
	for i := range got.Fills {
		if got.Fills[i] != want.Fills[i] {
			t.Fatalf("%s: fill %d = %v, want %v", label, i, got.Fills[i], want.Fills[i])
		}
	}
}

func testChip(method string, gx, gy int) ChipJob {
	return ChipJob{
		CellsX: 6, CellsY: 4,
		GX: gx, GY: gy,
		Method:    method,
		TargetMin: 0.3,
		Options:   server.SubmitOptions{Seed: 42, Workers: 2},
	}
}

// TestClusterBitIdentical is the acceptance e2e: three in-process workers, a
// 3x2 region grid, merged report bit-identical to the single-process run —
// for a deterministic method and for the seeded-RNG one (which exercises the
// per-tile seed offsets carried by the region spec).
func TestClusterBitIdentical(t *testing.T) {
	workers := newCluster(t, 3)
	for _, method := range []string{"greedy", "normal"} {
		prep, err := PrepareChip(testChip(method, 3, 2))
		if err != nil {
			t.Fatalf("PrepareChip: %v", err)
		}
		if len(prep.Jobs) != 6 {
			t.Fatalf("got %d region jobs, want 6", len(prep.Jobs))
		}
		want, err := RunChipLocal(context.Background(), prep)
		if err != nil {
			t.Fatalf("RunChipLocal: %v", err)
		}
		if want.FillCount == 0 {
			t.Fatal("reference run placed no fill; the comparison would be vacuous")
		}

		coord, err := New(Config{Workers: workers, PollInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		got, err := coord.RunChip(context.Background(), prep)
		if err != nil {
			t.Fatalf("RunChip(%s): %v", method, err)
		}
		assertBitIdentical(t, method, got, want)
		if got.Regions != 6 {
			t.Fatalf("merged %d regions, want 6", got.Regions)
		}
	}
}

// TestChipLocalMemoOnOffPinnedHash runs the 100x100-tile repeating-pattern
// chip (Chip(25, 100), ten stripe regions, elliptic budget to 0.3 under a 0.5
// cap, ILP-II under a 0.0005 ps net cap) through RunChipLocal with the solve
// memo on and off. The merged reports must be equal, and the fill hash is
// pinned: a memo key that lets one tile pattern replay another's fill, or any
// change to the fill itself, fails here. Under the race detector only the
// memo-on run goes: the memo-off run re-solves every tile serially and
// reaches no goroutine the memo-on run does not.
func TestChipLocalMemoOnOffPinnedHash(t *testing.T) {
	prep, err := PrepareChip(ChipJob{
		CellsX: 25, CellsY: 100, GX: 10,
		Method:    "ILP-II",
		TargetMin: 0.3, MaxDensity: 0.5,
		Options: server.SubmitOptions{NetCapPS: 0.0005},
	})
	if err != nil {
		t.Fatalf("PrepareChip: %v", err)
	}
	on, err := RunChipLocal(context.Background(), prep)
	if err != nil {
		t.Fatalf("RunChipLocal (memo on): %v", err)
	}
	if want := "495041322036e911"; on.FillHash != want {
		t.Fatalf("fill hash %s (%d fills), want %s", on.FillHash, on.FillCount, want)
	}
	if raceEnabled {
		return
	}
	prep.Job.Options.NoSolveMemo = true
	off, err := RunChipLocal(context.Background(), prep)
	if err != nil {
		t.Fatalf("RunChipLocal (memo off): %v", err)
	}
	assertBitIdentical(t, "memo on vs off", on, off)
}

// TestLocalReferenceMatchesWholeRun validates the reference itself against
// the one run that does not go through the region path: a plain whole-chip
// engine solving the whole budget at once. For greedy, normal and ILP-II
// under a net cap, at region grids 3x1 and 3x2, the stripe-by-stripe
// RunChipLocal must place the same fill set, and with a stripes-only grid
// (gy = 1) the region order is the whole-chip instance order, so the fill
// streams hash equal. Delay totals and per-net delays are compared to a
// relative 1e-12 only: grouping the sums by region re-associates the float
// additions, which moves the last ulp (the bitwise contract is region-
// ordered aggregation, per DESIGN.md §10 — RunChipLocal's region order).
func TestLocalReferenceMatchesWholeRun(t *testing.T) {
	relClose := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, method := range []string{"greedy", "normal", "ILP-II"} {
		for _, gy := range []int{1, 2} {
			label := fmt.Sprintf("%s 3x%d", method, gy)
			job := testChip(method, 3, gy)
			if method == "ILP-II" {
				job.Options.NetCapPS = 0.0005
			}
			prep, err := PrepareChip(job)
			if err != nil {
				t.Fatalf("%s: PrepareChip: %v", label, err)
			}
			ref, err := RunChipLocal(context.Background(), prep)
			if err != nil {
				t.Fatalf("%s: RunChipLocal: %v", label, err)
			}

			opts, err := prep.Job.Options.SessionOptions()
			if err != nil {
				t.Fatal(err)
			}
			cfg := opts.EngineConfig()
			cfg.Workers = max(1, cfg.Workers)
			eng, err := core.NewEngine(prep.Layout, prep.Dis, prep.Rule, cfg)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", label, err)
			}
			instances, err := eng.Instances(prep.Budget)
			if err != nil {
				t.Fatalf("%s: Instances: %v", label, err)
			}
			m, _ := server.ParseMethod(prep.Job.Method)
			res, err := eng.Run(m, instances)
			if err != nil {
				t.Fatalf("%s: Run: %v", label, err)
			}

			if len(res.Fill.Fills) == 0 {
				t.Fatalf("%s: whole run placed no fill; the comparison would be vacuous", label)
			}
			fh := server.NewFillHasher()
			whole := make([][2]int, len(res.Fill.Fills))
			for i, f := range res.Fill.Fills {
				fh.Add(f.Col, f.Row)
				whole[i] = [2]int{f.Col, f.Row}
			}
			if gy == 1 && (fh.Sum() != ref.FillHash || fh.Count() != ref.FillCount) {
				t.Fatalf("%s: whole run fills %s/%d, reference %s/%d",
					label, fh.Sum(), fh.Count(), ref.FillHash, ref.FillCount)
			}
			local := slices.Clone(ref.Fills)
			for _, fills := range [][][2]int{whole, local} {
				slices.SortFunc(fills, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
			}
			if !slices.Equal(whole, local) {
				t.Fatalf("%s: whole run places %d fills, reference %d, and the sets differ",
					label, len(whole), len(local))
			}
			if !relClose(res.Unweighted, ref.Unweighted) || !relClose(res.Weighted, ref.Weighted) {
				t.Fatalf("%s: whole run delays %g/%g, reference %g/%g",
					label, res.Unweighted, res.Weighted, ref.Unweighted, ref.Weighted)
			}
			if len(res.PerNet) != len(ref.PerNet) {
				t.Fatalf("%s: whole run has %d per-net delays, reference %d", label, len(res.PerNet), len(ref.PerNet))
			}
			for n, v := range res.PerNet {
				if !relClose(v, ref.PerNet[n]) {
					t.Fatalf("%s: net %s delay %g, reference %g", label, ref.NetNames[n], v, ref.PerNet[n])
				}
			}
		}
	}
}

// TestChipLocalCanceledBuildsNoEngine runs a prepared chip under a context
// cancelled up front. RunChipLocal must return context.Canceled before it
// builds the first region engine: the jobs' stripe layouts are taken away,
// so any engine build would fail (or panic) with something else.
func TestChipLocalCanceledBuildsNoEngine(t *testing.T) {
	prep, err := PrepareChip(testChip("greedy", 3, 1))
	if err != nil {
		t.Fatalf("PrepareChip: %v", err)
	}
	for _, jb := range prep.Jobs {
		jb.Layout = nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunChipLocal(ctx, prep); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunChipLocal under a cancelled context: %v, want context.Canceled", err)
	}
}

// killSwitch makes a worker die on cue: after `armed` sees its first polled
// GET for a job it accepted, every subsequent request (including that one)
// is aborted mid-connection — a worker killed mid-region, with the job
// already accepted and running.
type killSwitch struct {
	inner http.Handler
	armed atomic.Bool
	dead  atomic.Bool
	kills atomic.Int64
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if r.Method == http.MethodGet && len(r.URL.Path) > len("/v1/jobs/") &&
		r.URL.Path[:len("/v1/jobs/")] == "/v1/jobs/" &&
		k.armed.CompareAndSwap(true, false) {
		k.dead.Store(true)
		k.kills.Add(1)
		panic(http.ErrAbortHandler)
	}
	k.inner.ServeHTTP(w, r)
}

// namedWorkers addresses servers as http://worker-0..n-1 and returns a
// client whose transport dials each name's httptest listener, so rendezvous
// placement — which hashes the worker URLs — depends on the inputs alone,
// never on the ports the kernel handed out.
func namedWorkers(servers ...*httptest.Server) ([]string, *http.Client) {
	urls := make([]string, len(servers))
	addrs := make(map[string]string, len(servers))
	for i, ts := range servers {
		name := fmt.Sprintf("worker-%d", i)
		urls[i] = "http://" + name
		addrs[name+":80"] = ts.Listener.Addr().String()
	}
	var dialer net.Dialer
	return urls, &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			hostPort, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("no worker at %s", addr)
			}
			return dialer.DialContext(ctx, network, hostPort)
		},
	}}
}

// TestClusterSurvivesWorkerKill is the fault-injection e2e: one of three
// workers dies mid-region (job accepted, then the worker stops answering);
// the coordinator's retry resubmits the region elsewhere under the same
// idempotency key and the merged report stays bit-identical. The workers
// have fixed names, so whether the killable one is some region's first
// choice is a property of the test inputs, checked before the run.
func TestClusterSurvivesWorkerKill(t *testing.T) {
	ks := &killSwitch{}
	ks.armed.Store(true)
	killable := newWorker(t, func(h http.Handler) http.Handler {
		ks.inner = h
		return ks
	})
	workers, client := namedWorkers(killable, newWorker(t, nil), newWorker(t, nil))

	prep, err := PrepareChip(testChip("greedy", 3, 2))
	if err != nil {
		t.Fatalf("PrepareChip: %v", err)
	}
	placed := false
	for _, jb := range prep.Jobs {
		placed = placed || rendezvous(workers, regionKey(jb, &prep.Job))[0] == workers[0]
	}
	if !placed {
		t.Fatalf("no region ranks %s first; the kill switch could never fire", workers[0])
	}
	want, err := RunChipLocal(context.Background(), prep)
	if err != nil {
		t.Fatalf("RunChipLocal: %v", err)
	}

	reg := obs.NewRegistry()
	coord, err := New(Config{
		Workers:      workers,
		Client:       client,
		PollInterval: 5 * time.Millisecond,
		BackoffBase:  5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		Registry:     reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := coord.RunChip(context.Background(), prep)
	if err != nil {
		t.Fatalf("RunChip with killed worker: %v", err)
	}
	if ks.kills.Load() == 0 {
		t.Fatal("kill switch never fired; the fault path was not exercised")
	}
	if coord.m.retries.Value() == 0 {
		t.Fatal("no retries recorded; the killed region was not rescattered")
	}
	assertBitIdentical(t, "after worker kill", got, want)
}

// TestCoordinatorWALReplay: a coordinator with a data dir persists each
// finished region's payload; a restarted coordinator replays them and serves
// the whole chip from the WAL without touching any worker.
func TestCoordinatorWALReplay(t *testing.T) {
	workers := newCluster(t, 2)
	dir := t.TempDir()
	prep, err := PrepareChip(testChip("greedy", 2, 2))
	if err != nil {
		t.Fatalf("PrepareChip: %v", err)
	}

	first, err := New(Config{Workers: workers, PollInterval: 5 * time.Millisecond, DataDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want, err := first.RunChip(context.Background(), prep)
	if err != nil {
		t.Fatalf("first RunChip: %v", err)
	}
	if err := first.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The restarted coordinator gets only a dead worker: any attempt to
	// scatter would fail, so success proves every region came from the WAL.
	reg := obs.NewRegistry()
	second, err := New(Config{
		Workers:      []string{"http://127.0.0.1:1"},
		MaxAttempts:  1,
		BackoffBase:  time.Millisecond,
		PollInterval: time.Millisecond,
		DataDir:      dir,
		Registry:     reg,
	})
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	got, err := second.RunChip(context.Background(), prep)
	if err != nil {
		t.Fatalf("RunChip from wal: %v", err)
	}
	if cached := second.m.regions.Value("cached"); cached != 4 {
		t.Fatalf("served %g regions from the wal, want 4", cached)
	}
	assertBitIdentical(t, "wal replay", got, want)
}

// stallSubmit delays every job submission by d, leaving the rest of the API
// fast — a slow-but-alive worker, the hedging target.
type stallSubmit struct {
	inner http.Handler
	d     time.Duration
}

func (s *stallSubmit) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
		time.Sleep(s.d)
	}
	s.inner.ServeHTTP(w, r)
}

// TestHedgedRetry: with every submission stalled well past HedgeAfter, each
// region's primary attempt is slow, a hedged duplicate launches on the
// next-ranked worker (exactly one per region — both eventually succeed and
// the first success wins), and the run still matches the single-process
// reference.
func TestHedgedRetry(t *testing.T) {
	stall := func(h http.Handler) http.Handler {
		return &stallSubmit{inner: h, d: 300 * time.Millisecond}
	}
	workers := []string{newWorker(t, stall).URL, newWorker(t, stall).URL}

	prep, err := PrepareChip(testChip("greedy", 2, 2))
	if err != nil {
		t.Fatalf("PrepareChip: %v", err)
	}
	want, err := RunChipLocal(context.Background(), prep)
	if err != nil {
		t.Fatalf("RunChipLocal: %v", err)
	}

	reg := obs.NewRegistry()
	coord, err := New(Config{
		Workers:      workers,
		PollInterval: 5 * time.Millisecond,
		HedgeAfter:   50 * time.Millisecond,
		Registry:     reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got, err := coord.RunChip(context.Background(), prep)
	if err != nil {
		t.Fatalf("RunChip: %v", err)
	}
	assertBitIdentical(t, "hedged", got, want)
	if hedges := coord.m.hedges.Value(); hedges != float64(len(prep.Jobs)) {
		t.Fatalf("launched %g hedges, want %d (one per region)", hedges, len(prep.Jobs))
	}
}

// TestRendezvousRanking: deterministic, a permutation of the workers, and
// sensitive to the key (different regions spread across workers).
func TestRendezvousRanking(t *testing.T) {
	workers := []string{"http://a", "http://b", "http://c", "http://d"}
	firsts := map[string]bool{}
	for _, key := range []string{"k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"} {
		r1 := rendezvous(workers, key)
		r2 := rendezvous(workers, key)
		if len(r1) != len(workers) {
			t.Fatalf("ranking has %d entries, want %d", len(r1), len(workers))
		}
		seen := map[string]bool{}
		for i, w := range r1 {
			if r2[i] != w {
				t.Fatalf("ranking not deterministic for %q", key)
			}
			seen[w] = true
		}
		if len(seen) != len(workers) {
			t.Fatalf("ranking for %q is not a permutation: %v", key, r1)
		}
		firsts[r1[0]] = true
	}
	if len(firsts) < 2 {
		t.Fatalf("8 keys all ranked the same worker first: no spread")
	}
}

// TestRegionKey: stable for identical work, different across regions, and
// sensitive to method and options (same geometry, different result).
func TestRegionKey(t *testing.T) {
	prep, err := PrepareChip(testChip("greedy", 2, 2))
	if err != nil {
		t.Fatalf("PrepareChip: %v", err)
	}
	// Pinned: regions.wal entries written before a change to regionKey or
	// to the SubmitOptions wire form would no longer dedupe.
	if k := regionKey(prep.Jobs[0], &prep.Job); k != "region-06dbd59a8c099256-fcfb43e0ffdf5205" {
		t.Fatalf("regionKey = %s, want the pinned key", k)
	}
	keys := map[string]bool{}
	for _, jb := range prep.Jobs {
		k := regionKey(jb, &prep.Job)
		if k != regionKey(jb, &prep.Job) {
			t.Fatal("region key not deterministic")
		}
		if keys[k] {
			t.Fatalf("duplicate region key %s", k)
		}
		keys[k] = true
	}
	jb := prep.Jobs[0]
	other := prep.Job
	other.Method = "dp"
	if regionKey(jb, &other) == regionKey(jb, &prep.Job) {
		t.Fatal("region key ignores the method")
	}
	other = prep.Job
	other.Options.Seed = 7
	if regionKey(jb, &other) == regionKey(jb, &prep.Job) {
		t.Fatal("region key ignores the options")
	}
}

// TestMergeRejectsCorruptPayload: a payload whose fills do not match its own
// hash fails the merge loudly instead of poisoning the chip hash.
func TestMergeRejectsCorruptPayload(t *testing.T) {
	good := &server.RegionPayload{ID: "r", Fills: [][2]int{{1, 2}}, FillHash: "0000000000000000"}
	if _, err := MergeRegions(nil, []*server.RegionPayload{good}); err == nil {
		t.Fatal("corrupt fill hash not rejected")
	}
	if _, err := MergeRegions(nil, []*server.RegionPayload{nil}); err == nil {
		t.Fatal("missing payload not rejected")
	}
	bad := &server.RegionPayload{ID: "r", PerNet: map[string]float64{"ghost": 1}}
	fh := server.NewFillHasher()
	bad.FillHash = fh.Sum()
	if _, err := MergeRegions([]string{"n0"}, []*server.RegionPayload{bad}); err == nil {
		t.Fatal("unknown net name not rejected")
	}
}

// TestBackoffBounds: the schedule grows exponentially from base, never
// exceeds 1.5x the cap, and never goes negative.
func TestBackoffBounds(t *testing.T) {
	c := &Coordinator{cfg: Config{BackoffBase: 10 * time.Millisecond, BackoffMax: 80 * time.Millisecond}}
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; attempt < 40; attempt++ {
		d := c.backoff(attempt, rng)
		base := c.cfg.BackoffBase << uint(attempt-1)
		if base <= 0 || base > c.cfg.BackoffMax {
			base = c.cfg.BackoffMax
		}
		if d < base || d > base+base/2 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, base, base+base/2)
		}
	}
}
