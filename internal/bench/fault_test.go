package bench

import (
	"bytes"
	"strings"
	"testing"
)

// faultFams returns the fault families of the table (soak families have
// no schedule, hence no seeds to vary).
func faultFams() []*family {
	var out []*family
	for i := range families {
		if families[i].sched != nil {
			out = append(out, &families[i])
		}
	}
	return out
}

// TestFamilyTableCoversRegistry ties the registry to the table in both
// directions: every registered fault.* and soak.* experiment is a table
// entry (so the invariance tests below cannot miss a family) and every
// entry is registered.
func TestFamilyTableCoversRegistry(t *testing.T) {
	inTable := map[string]bool{}
	for _, f := range families {
		if inTable[f.id] {
			t.Errorf("family %s appears twice in the table", f.id)
		}
		inTable[f.id] = true
		if _, ok := Get(f.id); !ok {
			t.Errorf("family %s is not registered", f.id)
		}
		if strings.HasPrefix(f.id, "fault.") != (f.sched != nil) {
			t.Errorf("family %s: fault.* ids carry a schedule, soak.* ids do not", f.id)
		}
	}
	n := 0
	for _, e := range All() {
		if strings.HasPrefix(e.ID, "fault.") || strings.HasPrefix(e.ID, "soak.") {
			n++
			if !inTable[e.ID] {
				t.Errorf("experiment %s is registered outside the family table", e.ID)
			}
		}
	}
	if n != len(families) || len(faultFams()) == 0 {
		t.Errorf("%d fault.*/soak.* experiments registered, table has %d entries (%d fault families)", n, len(families), len(faultFams()))
	}
}

// TestFaultSafetySeedInvariant is the property the safety layer pins:
// the safety digest depends only on the deployment shape and the
// prefix-consistency outcome, never on which faults a seed produced. A
// completely different seed set must therefore yield the identical
// digest (while the output bytes legitimately differ).
func TestFaultSafetySeedInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fault deployment twice (seconds of simulation)")
	}
	for _, f := range faultFams() {
		recA, recB := &DelivRecorder{}, &DelivRecorder{}
		var outA, outB bytes.Buffer
		runFamily(&outA, recA, f, []int64{1, 2, 3})
		runFamily(&outB, recB, f, []int64{11, 12, 13})
		dA, dB := recA.SafetyDigest(), recB.SafetyDigest()
		if dA == "" || dB == "" {
			t.Errorf("%s: empty safety digest (a=%q b=%q)", f.id, dA, dB)
			continue
		}
		if dA != dB {
			t.Errorf("%s: safety digest is seed-dependent\n seeds 1..3:   %s\n seeds 11..13: %s\n lines A: %v\n lines B: %v",
				f.id, dA, dB, recA.SafetyLines(), recB.SafetyLines())
		}
		if bytes.Equal(outA.Bytes(), outB.Bytes()) {
			t.Errorf("%s: different seed sets produced identical output — the schedules are not seed-dependent", f.id)
		}
	}
}

// TestFaultParInvariant checks the stronger PDES property on the fault
// family: with the fault schedule installed and the rig partitioned into
// logical processes, the full output bytes — not just the safety digest
// — are identical at -par 1, 2 and 4.
func TestFaultParInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fault deployment at three par levels")
	}
	defer SetPar(Par())
	for _, f := range faultFams() {
		var ref []byte
		var refDigest string
		for _, par := range []int{1, 2, 4} {
			SetPar(par)
			rec := &DelivRecorder{}
			var out bytes.Buffer
			runFamily(&out, rec, f, faultSeeds)
			if par == 1 {
				ref, refDigest = out.Bytes(), rec.SafetyDigest()
				continue
			}
			if !bytes.Equal(out.Bytes(), ref) {
				t.Errorf("%s: output at -par %d diverges from sequential", f.id, par)
			}
			if d := rec.SafetyDigest(); d != refDigest {
				t.Errorf("%s: safety digest at -par %d = %s, sequential = %s", f.id, par, d, refDigest)
			}
		}
		SetPar(1)
	}
}

// TestSafetyRecorder exercises the recorder-level plumbing: nil safety,
// digest presence, and line rendering.
func TestSafetyRecorder(t *testing.T) {
	var nilRec *DelivRecorder
	if o := nilRec.Oracle(); o == nil {
		t.Fatal("nil recorder must still hand out a working oracle")
	}
	if d := nilRec.SafetyDigest(); d != "" {
		t.Errorf("nil recorder safety digest = %q, want empty", d)
	}
	rec := &DelivRecorder{}
	if d := rec.SafetyDigest(); d != "" {
		t.Errorf("oracle-less recorder safety digest = %q, want empty", d)
	}
	rec.Oracle().Learner()
	rec.Oracle()
	lines := rec.SafetyLines()
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "o0 learners=1") || !strings.HasPrefix(lines[1], "o1 learners=0") {
		t.Errorf("unexpected safety lines: %v", lines)
	}
	if d := rec.SafetyDigest(); len(d) != 64 {
		t.Errorf("safety digest = %q, want sha256 hex", d)
	}
}
