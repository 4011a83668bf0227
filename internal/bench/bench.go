// Package bench is the reproduction harness: one runner per table and
// figure of the dissertation's evaluation sections. Each runner rebuilds
// the experiment's deployment on the simulated cluster, sweeps the same
// parameter the paper sweeps, and prints the same rows/series the paper
// reports together with the paper's qualitative expectation.
//
// Runners are exposed three ways: the registry here (used by cmd/repro),
// the testing.B wrappers in the repository root's bench_test.go, and
// programmatically.
package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the paper artifact name: "fig3.7", "tab3.2", ...
	ID string
	// Title describes the artifact.
	Title string
	// Run regenerates it, writing human-readable series to w. For
	// registered experiments it is synthesized from Traced with no
	// recorder, so external callers (benchmarks, smoke tests) keep the
	// one-argument shape.
	Run func(w io.Writer)
	// Traced regenerates the artifact while folding every learner's
	// delivered command sequence into rec (nil rec records nothing).
	// All registered experiments provide it; it is what the worker pool
	// runs so output and delivery hashes come from the same simulation.
	Traced func(w io.Writer, rec *DelivRecorder)
}

// Hash regenerates the experiment and returns the hex SHA-256 of its full
// text output, teeing the text to w when w is non-nil. It is the capture
// path the worker pool (and through it the golden-file suite) runs every
// experiment through: anything that changes a single output byte changes
// the hash.
func (e Experiment) Hash(w io.Writer) string { return e.hashTraced(w, nil) }

// hashTraced is Hash with a delivery recorder attached to the same run.
func (e Experiment) hashTraced(w io.Writer, rec *DelivRecorder) string {
	h := sha256.New()
	out := io.Writer(h)
	if w != nil {
		out = io.MultiWriter(h, w)
	}
	if e.Traced != nil {
		e.Traced(out, rec)
	} else {
		e.Run(out)
	}
	return hex.EncodeToString(h.Sum(nil))
}

var registry []Experiment

func register(e Experiment) {
	if e.Run == nil && e.Traced != nil {
		tr := e.Traced
		e.Run = func(w io.Writer) { tr(w, nil) }
	}
	registry = append(registry, e)
}

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// table accumulates and prints one aligned results table.
type table struct {
	title  string
	header []string
	rows   [][]string
	notes  []string
}

func newTable(title string, header ...string) *table {
	return &table{title: title, header: header}
}

func (t *table) row(cells ...any) {
	r := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			r[i] = v
		case float64:
			r[i] = fmt.Sprintf("%.1f", v)
		case time.Duration:
			r[i] = v.Round(10 * time.Microsecond).String()
		default:
			r[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, r)
}

func (t *table) note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func (t *table) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.title)
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// mbps converts bytes transferred over dur to megabits per second.
func mbps(bytes int64, dur time.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / dur.Seconds()
}

// pct formats a ratio as a percentage string.
func pct(num, den float64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*num/den)
}
