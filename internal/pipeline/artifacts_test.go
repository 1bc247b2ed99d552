package pipeline

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// goldenEdges is the hand-checked dependency set of the optimized chain —
// the paper's Figure 9 dataflow, written out edge by edge.  If an artifact
// declaration in Processes drifts, or the derivation algorithm changes
// behaviour, this golden set catches it.
var goldenEdges = []ArtifactEdge{
	{PGatherInputs, PSeparateComponents, "v1list", HazardRAW},
	{PInitFilterParams, PDefaultFilter, "filter-params", HazardRAW},
	{PSeparateComponents, PDefaultFilter, "<s><c>.v1", HazardRAW},
	{PGatherInputs, PInitMetadata, "v1list", HazardRAW},
	{PInitMetadata, PFourier, "fourier", HazardRAW},
	{PDefaultFilter, PFourier, "<s><c>.v2", HazardRAW},
	{PGatherInputs, PInitFourierGraph, "v1list", HazardRAW},
	{PInitFourierGraph, PPlotFourier, "fourier-graph", HazardRAW},
	{PFourier, PPlotFourier, "<s><c>.f", HazardRAW},
	{PInitFourierGraph, PPickCorners, "fourier-graph", HazardRAW},
	{PFourier, PPickCorners, "<s><c>.f", HazardRAW},
	{PDefaultFilter, PPickCorners, "filter-params", HazardWAR},
	{PInitFilterParams, PPickCorners, "filter-params", HazardWAW},
	{PInitFlags, PInitFlags2, "flags", HazardWAW},
	{PPickCorners, PCorrectedFilter, "filter-params", HazardRAW},
	{PSeparateComponents, PCorrectedFilter, "<s><c>.v1", HazardRAW},
	{PFourier, PCorrectedFilter, "<s><c>.v2", HazardWAR},
	{PDefaultFilter, PCorrectedFilter, "<s><c>.v2", HazardWAW},
	{PDefaultFilter, PCorrectedFilter, "max-values", HazardWAW},
	{PInitMetadata, PPlotAccel, "acc-graph", HazardRAW},
	{PCorrectedFilter, PPlotAccel, "<s><c>.v2", HazardRAW},
	{PInitMetadata, PResponseSpectrum, "response", HazardRAW},
	{PCorrectedFilter, PResponseSpectrum, "<s><c>.v2", HazardRAW},
	{PGatherInputs, PInitResponseGraph, "v1list", HazardRAW},
	{PInitResponseGraph, PPlotResponse, "response-graph", HazardRAW},
	{PResponseSpectrum, PPlotResponse, "<s><c>.r", HazardRAW},
	{PInitMetadata, PGenerateGEM, "response", HazardRAW},
	{PCorrectedFilter, PGenerateGEM, "<s><c>.v2", HazardRAW},
	{PResponseSpectrum, PGenerateGEM, "<s><c>.r", HazardRAW},
}

func sortEdges(edges []ArtifactEdge) []ArtifactEdge {
	out := append([]ArtifactEdge(nil), edges...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.To != b.To {
			return a.To < b.To
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Artifact != b.Artifact {
			return a.Artifact < b.Artifact
		}
		return a.Hazard < b.Hazard
	})
	return out
}

// TestDerivedEdgesMatchGoldenSet pins the derivation output exactly: every
// golden edge present, no spurious edges.
func TestDerivedEdgesMatchGoldenSet(t *testing.T) {
	got := sortEdges(DeriveArtifactEdges())
	want := sortEdges(goldenEdges)
	if !reflect.DeepEqual(got, want) {
		gotSet := map[string]bool{}
		for _, e := range got {
			gotSet[fmt.Sprint(e)] = true
		}
		wantSet := map[string]bool{}
		for _, e := range want {
			wantSet[fmt.Sprint(e)] = true
		}
		for k := range wantSet {
			if !gotSet[k] {
				t.Errorf("missing edge %s", k)
			}
		}
		for k := range gotSet {
			if !wantSet[k] {
				t.Errorf("spurious edge %s", k)
			}
		}
	}
}

// TestDerivedEdgesReproduceStageOrdering is the cross-check against the
// hand-written Stages table: the paper's Figure 9 schedule must be a valid
// topological order of the derived graph (no derived edge points from a
// later stage to an earlier one, and none crosses within a stage — the
// stage's processes are mutually independent), and every stage after the
// first must be anchored by at least one dependency on an earlier stage,
// otherwise Figure 9 would contain a stage the dataflow does not justify.
func TestDerivedEdgesReproduceStageOrdering(t *testing.T) {
	incoming := map[StageID]bool{}
	for _, e := range DeriveArtifactEdges() {
		from, to := StageOf(e.From), StageOf(e.To)
		if from == 0 || to == 0 {
			t.Fatalf("edge %v→%v involves a process outside the stage schedule", e.From, e.To)
		}
		if from > to {
			t.Errorf("edge %v→%v (%s on %s) points backwards: stage %v after %v",
				e.From, e.To, e.Hazard, e.Artifact, from, to)
		}
		if from == to {
			t.Errorf("edge %v→%v (%s on %s) crosses within stage %v; stage-mates must be independent",
				e.From, e.To, e.Hazard, e.Artifact, from)
		}
		if from < to {
			incoming[to] = true
		}
	}
	for st := StageID(2); st <= NumStages; st++ {
		if !incoming[st] {
			t.Errorf("stage %v has no dependency on any earlier stage", st)
		}
	}
}

func TestPerRecordProcessClassification(t *testing.T) {
	perRecord := map[ProcessID]bool{
		PSeparateComponents: true, PDefaultFilter: true, PFourier: true,
		PPlotFourier: true, PPickCorners: true, PCorrectedFilter: true,
		PPlotAccel: true, PResponseSpectrum: true, PPlotResponse: true,
		PGenerateGEM: true,
	}
	for _, p := range Processes {
		if p.Redundant {
			continue
		}
		if got := PerRecordProcess(p.ID); got != perRecord[p.ID] {
			t.Errorf("PerRecordProcess(#%d %s) = %v, want %v", p.ID, p.Name, got, perRecord[p.ID])
		}
	}
}

func TestDependenciesOf(t *testing.T) {
	cases := map[ProcessID][]ProcessID{
		PCorrectedFilter:    {PSeparateComponents, PDefaultFilter, PFourier, PPickCorners},
		PGenerateGEM:        {PInitMetadata, PCorrectedFilter, PResponseSpectrum},
		PInitFlags2:         {PInitFlags},
		PSeparateComponents: {PGatherInputs},
	}
	for p, want := range cases {
		got := dependenciesOf(p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("dependenciesOf(#%d) = %v, want %v", p, got, want)
		}
	}
}

// dependenciesOf returns the deduplicated set of processes that p must wait
// for, in ascending order — the per-process view of DeriveArtifactEdges.
func dependenciesOf(p ProcessID) []ProcessID {
	seen := map[ProcessID]bool{}
	var deps []ProcessID
	for _, e := range DeriveArtifactEdges() {
		if e.To == p && !seen[e.From] {
			seen[e.From] = true
			deps = append(deps, e.From)
		}
	}
	for i := 1; i < len(deps); i++ {
		for j := i; j > 0 && deps[j] < deps[j-1]; j-- {
			deps[j], deps[j-1] = deps[j-1], deps[j]
		}
	}
	return deps
}
