// statusz.go renders the coordinator's human status page: worker health,
// scatter counters, queue state, every remembered chip with its per-region
// elapsed-vs-predicted-cost table, and the cluster-wide slowest tiles.
// `GET /statusz` serves HTML; `?format=json` returns the same data
// machine-readable (the Prometheus exposition remains the time-series API).
package cluster

import (
	"html/template"
	"net/http"
	"time"

	"pilfill/internal/jobqueue"
	"pilfill/internal/server"
)

// statuszChip is one chip job's row group on the status page.
type statuszChip struct {
	ID       string        `json:"id"`
	State    string        `json:"state"`
	Phase    string        `json:"phase,omitempty"`
	Progress *ChipProgress `json:"progress,omitempty"`
}

// statuszData is everything /statusz shows.
type statuszData struct {
	Now       time.Time       `json:"now"`
	Workers   []WorkerStatus  `json:"workers"`
	Coord     CoordStats      `json:"coordinator"`
	Queue     jobqueue.Stats  `json:"queue"`
	Chips     []statuszChip   `json:"chips"`
	SlowTiles []server.TileMS `json:"slowest_tiles,omitempty"`
}

// statuszChipLimit bounds how many chips the page lists (newest first).
const statuszChipLimit = 32

// statuszSlowTiles bounds the cluster-wide slowest-tiles table.
const statuszSlowTiles = 10

func (s *Service) statuszData(r *http.Request) statuszData {
	d := statuszData{
		Now:     time.Now(),
		Workers: s.coord.WorkerStatuses(r.Context()),
		Coord:   s.coord.Stats(),
		Queue:   s.q.Stats(),
	}
	snaps, _ := s.q.ListPage("", statuszChipLimit)
	for _, snap := range snaps {
		c := statuszChip{ID: snap.ID, State: snap.State.String()}
		if snap.State == jobqueue.Running {
			c.Phase = snap.Phase
		}
		if run := s.runOf(snap.ID); run != nil {
			c.Progress = run.Progress()
			for _, t := range run.SlowestTiles(statuszSlowTiles) {
				d.SlowTiles = insertSlowTileMS(d.SlowTiles, t)
			}
		}
		d.Chips = append(d.Chips, c)
	}
	return d
}

// insertSlowTileMS keeps a descending top-N list of tile times.
func insertSlowTileMS(list []server.TileMS, t server.TileMS) []server.TileMS {
	pos := len(list)
	for pos > 0 && t.MS > list[pos-1].MS {
		pos--
	}
	if pos >= statuszSlowTiles {
		return list
	}
	list = append(list, server.TileMS{})
	copy(list[pos+1:], list[pos:])
	list[pos] = t
	if len(list) > statuszSlowTiles {
		list = list[:statuszSlowTiles]
	}
	return list
}

func (s *Service) handleStatusz(w http.ResponseWriter, r *http.Request) {
	d := s.statuszData(r)
	if r.URL.Query().Get("format") == "json" {
		server.WriteJSON(w, http.StatusOK, d)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := statuszTmpl.Execute(w, d); err != nil {
		s.logWarn("statusz render failed", "err", err)
	}
}

var statuszTmpl = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"ms": func(v float64) string { return template.HTMLEscapeString(formatMS(v)) },
}).Parse(`<!doctype html>
<html><head><title>pilfill-coord statusz</title><style>
body { font: 13px/1.4 monospace; margin: 1.5em; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #999; padding: 2px 8px; text-align: left; }
th { background: #eee; }
.bad { color: #b00; font-weight: bold; }
.ok { color: #070; }
</style></head><body>
<h1>pilfill-coord</h1>
<p>generated {{.Now.Format "2006-01-02 15:04:05 MST"}}</p>

<h2>workers</h2>
<table><tr><th>url</th><th>ready</th></tr>
{{range .Workers}}<tr><td>{{.URL}}</td>
<td>{{if .Ready}}<span class=ok>ready</span>{{else}}<span class=bad>NOT READY</span>{{end}}</td></tr>
{{end}}</table>

<h2>scatter</h2>
<table>
<tr><th>regions ok</th><th>cached</th><th>failed</th><th>attempts</th>
<th>retries</th><th>hedges</th><th>hedge wins</th><th>not-ready skips</th><th>in flight</th></tr>
<tr><td>{{.Coord.RegionsOK}}</td><td>{{.Coord.RegionsCached}}</td>
<td class="{{if .Coord.RegionsFailed}}bad{{end}}">{{.Coord.RegionsFailed}}</td>
<td>{{.Coord.Attempts}}</td><td>{{.Coord.Retries}}</td><td>{{.Coord.Hedges}}</td>
<td>{{.Coord.HedgeWins}}</td><td>{{.Coord.NotReady}}</td><td>{{.Coord.Inflight}}</td></tr>
</table>

<h2>chip queue</h2>
<table>
<tr><th>pending</th><th>capacity</th><th>workers</th><th>submitted</th><th>rejected</th><th>draining</th></tr>
<tr><td>{{.Queue.Depth}}</td><td>{{.Queue.Capacity}}</td><td>{{.Queue.Workers}}</td>
<td>{{.Queue.Submitted}}</td><td>{{.Queue.Rejected}}</td>
<td>{{if .Queue.Draining}}<span class=bad>yes</span>{{else}}no{{end}}</td></tr>
</table>

<h2>chips</h2>
{{range .Chips}}
<h3>{{.ID}} — {{.State}}{{with .Phase}} ({{.}}){{end}}</h3>
{{with .Progress}}
<p>trace {{.TraceID}} · {{.RegionsDone}}/{{len .Regions}} regions · {{.TilesDone}}/{{.TilesTotal}} tiles</p>
<table>
<tr><th>region</th><th>state</th><th>worker</th><th>attempts</th><th>hedges</th>
<th>tiles</th><th>predicted cost</th><th>elapsed</th></tr>
{{range .Regions}}<tr>
<td>{{.ID}}</td>
<td class="{{if eq .State "failed"}}bad{{end}}">{{.State}}</td>
<td>{{.Worker}}</td><td>{{.Attempts}}</td><td>{{.Hedges}}</td>
<td>{{.TilesDone}}/{{if .TilesTotal}}{{.TilesTotal}}{{else}}{{.TilesPlanned}}{{end}}</td>
<td>{{.PredictedCost}}</td><td>{{ms .ElapsedMS}}</td></tr>
{{end}}</table>
{{else}}<p>(no progress recorded)</p>{{end}}
{{else}}<p>(no chips)</p>{{end}}

{{with .SlowTiles}}
<h2>slowest tiles (cluster-wide)</h2>
<table><tr><th>tile i</th><th>tile j</th><th>solve</th><th>ilp nodes</th></tr>
{{range .}}<tr><td>{{.I}}</td><td>{{.J}}</td><td>{{ms .MS}}</td><td>{{.Nodes}}</td></tr>
{{end}}</table>
{{end}}
</body></html>
`))

// formatMS renders a millisecond count compactly.
func formatMS(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1000:
		return time.Duration(v * float64(time.Millisecond)).Round(10 * time.Millisecond).String()
	default:
		return time.Duration(v * float64(time.Millisecond)).Round(10 * time.Microsecond).String()
	}
}
