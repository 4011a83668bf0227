package bench

// The family table: every fault.* and soak.* experiment is one entry of
// families — a deployment as data (deploySpec), the variants that edit it
// and, for the fault families, a schedule generator and report columns.
// Two drivers read the table: runFamily runs a fault family's seeds ×
// variants for faultDur each; runSoak (soak.go) runs a soak family's two
// variants for soakDur. Registration, the seed- and par-invariance tests
// and the CI family matrix all enumerate the same table.

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// family is one table entry.
type family struct {
	id, title string // registry id and one-line experiment title
	head      string // the report table's title
	// deploy returns the family's base deployment; the driver fills in its
	// trace scope, oracle and fault schedule before the variant edits it.
	deploy func() deploySpec
	// variants run in order, per seed. nil means one unnamed run per seed
	// (no variant column).
	variants []variant
	// sched generates one seed's fault schedule; nil marks a soak family.
	sched func(seed int64) *fault.Schedule
	// clients enables the oracle's at-most-once / ack-completeness check.
	clients bool
	cols    []column // report columns after seed (and variant)
	// fold, when set, folds one finished run into the family's CI budget
	// aggregates (see foldStats).
	fold func(r *AllocResult, run *famRun)
}

// variant is one configuration a family runs its schedule under.
type variant struct {
	name string
	edit func(d *deploySpec) // nil: the base deployment as is
	// live is the oracle's liveness window for this variant; zero means
	// silence is not a stall.
	live time.Duration
}

// famRun is one finished run, as the report columns and budget folds see
// it.
type famRun struct {
	sched *fault.Schedule
	orc   *core.Oracle
	rig   *rig
}

// column is one report column: header and cell extractor.
type column struct {
	head string
	cell func(r *famRun) any
}

var (
	colEvents     = column{"events", func(r *famRun) any { return r.sched.Len() }}
	colMinPos     = column{"minpos", func(r *famRun) any { return r.orc.MinPos() }}
	colMaxPos     = column{"maxpos", func(r *famRun) any { return r.orc.MaxPos() }}
	colLost       = column{"lost", func(r *famRun) any { return r.rig.lost() }}
	colStalled    = column{"stalled", func(r *famRun) any { return r.orc.Stalled() }}
	colConsistent = column{"consistent", func(r *famRun) any { return r.orc.Consistent() }}
	colWalBytes   = column{"walbytes", func(r *famRun) any { return r.rig.walBytes() }}
	colReplayed   = column{"replayed", func(r *famRun) any { return r.rig.replayed() }}
	colSnaps      = column{"snaps", func(r *famRun) any { return r.rig.snaps() }}
	colGapMS      = column{"gapms", func(r *famRun) any { return float64(r.orc.MaxGap()) / 1e6 }}
	colIssued     = column{"issued", func(r *famRun) any { return r.rig.session.Stats.Issued }}
	colAcked      = column{"acked", func(r *famRun) any { return r.rig.session.Stats.Acked }}
	colRetries    = column{"retries", func(r *famRun) any { return r.rig.session.Stats.Retries }}
	colNacks      = column{"nacks", func(r *famRun) any { return r.rig.session.Stats.Nacks }}
	colDupSup     = column{"dupsup", func(r *famRun) any { return r.rig.dupSup() }}
)

// families is the table. Each file contributes the entries it documents.
var families = slices.Concat(faultFamilies, failoverFamilies, recoveryFamilies, clientFamilies, soakFamilies)

func init() {
	for i := range families {
		f := &families[i]
		register(Experiment{ID: f.id, Title: f.title, Traced: func(w io.Writer, rec *DelivRecorder) {
			f.run(w, rec, faultSeeds)
		}})
	}
}

// run regenerates the family's experiment; seeds only matter to fault
// families.
func (f *family) run(w io.Writer, rec *DelivRecorder, seeds []int64) {
	if f.sched == nil {
		runSoak(w, rec, f)
		return
	}
	runFamily(w, rec, f, seeds)
}

// runFamily drives one fault family through every seed's schedule, once
// per variant, and prints the per-run report. Positions, loss counts, WAL
// volumes and session counts are seed-dependent (pinned by the
// per-experiment output golden); the oracle verdicts are not (pinned by
// the safety golden).
func runFamily(w io.Writer, rec *DelivRecorder, f *family, seeds []int64) {
	variants := f.variants
	header := []string{"seed"}
	if variants == nil {
		variants = []variant{{}}
	} else {
		header = append(header, "variant")
	}
	for _, c := range f.cols {
		header = append(header, c.head)
	}
	t := newTable(f.head, header...)
	for _, seed := range seeds {
		for _, v := range variants {
			orc := rec.Oracle()
			if f.clients {
				orc.EnableClientCheck()
			}
			orc.SetLivenessWindow(v.live)
			d := f.deploy()
			d.dep, d.orc, d.faults = rec.Deployment(), orc, f.sched(seed)
			if v.edit != nil {
				v.edit(&d)
			}
			run := &famRun{sched: d.faults, orc: orc, rig: d.build()}
			run.rig.l.Run(faultDur)
			orc.Seal(faultDur)
			who, cells := fmt.Sprintf("seed %d", seed), []any{seed}
			if v.name != "" {
				who, cells = who+" "+v.name, append(cells, v.name)
			}
			for _, c := range f.cols {
				cells = append(cells, c.cell(run))
			}
			t.row(cells...)
			t.note("%s: %s", who, orc.Verdict())
			if div := orc.FirstDivergence(); div != "" {
				t.note("%s FIRST DIVERGENCE: %s", who, div)
			}
			if dup := orc.FirstDuplicate(); dup != "" {
				t.note("%s FIRST DUPLICATE: %s", who, dup)
			}
			if f.fold != nil {
				foldStats(f.id, func(r *AllocResult) { f.fold(r, run) })
			}
		}
	}
	t.print(w)
}
