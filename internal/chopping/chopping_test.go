package chopping

import (
	"reflect"
	"slices"
	"testing"

	"pacman/internal/analysis"
	"pacman/internal/proc"
	"pacman/internal/workload"
)

// sliceOf returns the ID of the slice of g that holds op.
func sliceOf(g *analysis.LDG, op int) int {
	for _, s := range g.Slices {
		if slices.Contains(s.Ops, op) {
			return s.ID
		}
	}
	return -1
}

// TestBankChopping: the SC-cycle T2 -S- T3 -C- D2 -S- D1 -C- T2 forces
// Transfer's T2+T3 and Deposit's D1+D2 to merge, while T1 and D3 (no
// conflicts) stay separate. This is the "coarser than PACMAN" property the
// paper's Section 7 describes and Figure 18 measures.
func TestBankChopping(t *testing.T) {
	b := workload.NewBank(10)
	ldgs := Decompose([]*proc.Compiled{b.Transfer, b.Deposit})

	tr := ldgs[0]
	if len(tr.Slices) != 2 {
		t.Fatalf("Transfer chopping pieces = %d, want 2\n%s", len(tr.Slices), tr)
	}
	if !reflect.DeepEqual(tr.Slices[0].Ops, []int{0}) {
		t.Errorf("piece 1 = %v, want the spouse read alone", tr.Slices[0].Ops)
	}
	if !reflect.DeepEqual(tr.Slices[1].Ops, []int{1, 2, 3, 4, 5, 6}) {
		t.Errorf("piece 2 = %v, want T2+T3 merged", tr.Slices[1].Ops)
	}

	dp := ldgs[1]
	if len(dp.Slices) != 2 {
		t.Fatalf("Deposit chopping pieces = %d, want 2\n%s", len(dp.Slices), dp)
	}
	if !reflect.DeepEqual(dp.Slices[0].Ops, []int{0, 1, 2, 3}) {
		t.Errorf("piece 1 = %v, want D1+D2 merged", dp.Slices[0].Ops)
	}
	if !reflect.DeepEqual(dp.Slices[1].Ops, []int{4, 5}) {
		t.Errorf("piece 2 = %v, want D3 alone", dp.Slices[1].Ops)
	}
}

// TestChoppingCoarserThanPACMAN: every PACMAN slice is contained in some
// chopping piece, for the bank workload.
func TestChoppingCoarserThanPACMAN(t *testing.T) {
	b := workload.NewBank(10)
	procs := []*proc.Compiled{b.Transfer, b.Deposit}
	chop := Decompose(procs)
	for pi, c := range procs {
		pac := analysis.BuildLDG(c)
		for _, s := range pac.Slices {
			// All ops of s must be in the same chopping piece.
			want := sliceOf(chop[pi], s.Ops[0])
			for _, op := range s.Ops[1:] {
				if sliceOf(chop[pi], op) != want {
					t.Errorf("proc %s: PACMAN slice %v split across chopping pieces",
						c.Name(), s.Ops)
				}
			}
		}
	}
}

// TestChoppingSingleProcedure: with one procedure there are no C edges, so
// chopping equals PACMAN's decomposition.
func TestChoppingSingleProcedure(t *testing.T) {
	b := workload.NewBank(10)
	chop := Decompose([]*proc.Compiled{b.Transfer})
	pac := analysis.BuildLDG(b.Transfer)
	if len(chop[0].Slices) != len(pac.Slices) {
		t.Fatalf("single-proc chopping = %d pieces, PACMAN = %d",
			len(chop[0].Slices), len(pac.Slices))
	}
	for i := range pac.Slices {
		if !reflect.DeepEqual(chop[0].Slices[i].Ops, pac.Slices[i].Ops) {
			t.Errorf("piece %d: %v vs %v", i, chop[0].Slices[i].Ops, pac.Slices[i].Ops)
		}
	}
}

// TestChoppingNoSCCycle: the result must have no SC-cycle: for every
// procedure, no two of its pieces may be connected via C edges plus other
// procedures' S edges.
func TestChoppingNoSCCycle(t *testing.T) {
	b := workload.NewBank(10)
	ldgs := Decompose([]*proc.Compiled{b.Transfer, b.Deposit})
	if merges := findSCCycleMerges(ldgs); len(merges) != 0 {
		t.Errorf("residual SC-cycles: %v", merges)
	}
}

// TestChoppingGDGIntegration: chopping LDGs run through the same GDG
// builder, producing fewer blocks than PACMAN (coarser parallelism).
func TestChoppingGDGIntegration(t *testing.T) {
	b := workload.NewBank(10)
	procs := []*proc.Compiled{b.Transfer, b.Deposit}

	pacGDG := analysis.BuildGDG([]*analysis.LDG{
		analysis.BuildLDG(b.Transfer), analysis.BuildLDG(b.Deposit)})
	chopGDG := analysis.BuildGDG(Decompose(procs))

	if pacGDG.NumBlocks() != 4 {
		t.Fatalf("PACMAN blocks = %d", pacGDG.NumBlocks())
	}
	if chopGDG.NumBlocks() >= pacGDG.NumBlocks() {
		t.Errorf("chopping blocks = %d, want fewer than PACMAN's %d",
			chopGDG.NumBlocks(), pacGDG.NumBlocks())
	}
}
