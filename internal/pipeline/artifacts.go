package pipeline

import "strings"

// This file derives the inter-process dependency graph from the declared
// artifact table (ProcessInfo.Inputs/Outputs) instead of hand-writing it.
// The Pipelined variant builds its record-level task DAG from these edges,
// and a test checks they reproduce the paper's Figure 9 stage ordering
// exactly — so the hand-written Stages table and the artifact declarations
// can never drift apart silently.

// Hazard classifies a derived dependency edge by the data hazard that
// forces the ordering.
type Hazard int

const (
	// HazardRAW is a true dependency: the consumer reads what the producer
	// wrote (read-after-write).
	HazardRAW Hazard = iota
	// HazardWAR is an anti-dependency: the writer must wait for earlier
	// readers of the artifact it overwrites (write-after-read).
	HazardWAR
	// HazardWAW is an output dependency: two writers of the same artifact
	// must keep their chain order so the final content is the later one's
	// (write-after-write).
	HazardWAW
)

// String returns the hazard's conventional abbreviation.
func (h Hazard) String() string {
	switch h {
	case HazardRAW:
		return "RAW"
	case HazardWAR:
		return "WAR"
	case HazardWAW:
		return "WAW"
	default:
		return "Hazard(?)"
	}
}

// ArtifactEdge is one derived ordering constraint: To must run after From
// because of the named artifact.
type ArtifactEdge struct {
	From, To ProcessID
	Artifact string
	Hazard   Hazard
}

// RecordScoped reports whether an artifact name is a per-record file family
// (one file or file set per station, marked by the <s> placeholder) rather
// than a single event-global file.
func RecordScoped(artifact string) bool { return strings.Contains(artifact, "<s>") }

// PerRecordProcess reports whether the process does independent per-record
// work — it reads or writes at least one record-scoped artifact — and can
// therefore be split into one dataflow node per station.  Event-global
// processes (the flag and metadata initializers) run as single nodes.
//
// Process #1 (gather input data files) is the exception by construction:
// it declares the record-scoped input <s>.v1 but is a directory scan that
// *discovers* the record set, so it cannot be split per record and runs in
// stage I before the graph is built.
func PerRecordProcess(p ProcessID) bool {
	if p == PGatherInputs {
		return false
	}
	info := Processes[p]
	for _, a := range info.Inputs {
		if RecordScoped(a) {
			return true
		}
	}
	for _, a := range info.Outputs {
		if RecordScoped(a) {
			return true
		}
	}
	return false
}

// DeriveArtifactEdges scans the non-redundant processes in chain order and
// emits every ordering constraint implied by their declared artifacts,
// exactly as a scoreboard derives hazards from register operands: per
// artifact it tracks the last writer and the readers since that write —
// each input adds a RAW edge from the last writer, each output adds WAR
// edges from the accumulated readers and a WAW edge from the last writer,
// then takes over as the new last writer.
//
// Redundant processes (#6, #12, #14) are skipped: every variant that
// schedules by stages has already dropped them, and the dataflow variant
// derives from the optimized chain.  External inputs (the raw <s>.v1
// files) have no writer, so reading them adds no edge.
func DeriveArtifactEdges() []ArtifactEdge {
	type artifactState struct {
		writer  ProcessID
		written bool
		readers []ProcessID
	}
	state := map[string]*artifactState{}
	at := func(a string) *artifactState {
		s := state[a]
		if s == nil {
			s = &artifactState{}
			state[a] = s
		}
		return s
	}
	var edges []ArtifactEdge
	for _, p := range Processes {
		if p.Redundant {
			continue
		}
		for _, a := range p.Inputs {
			s := at(a)
			if s.written {
				edges = append(edges, ArtifactEdge{From: s.writer, To: p.ID, Artifact: a, Hazard: HazardRAW})
			}
			s.readers = append(s.readers, p.ID)
		}
		for _, a := range p.Outputs {
			s := at(a)
			for _, r := range s.readers {
				if r != p.ID {
					edges = append(edges, ArtifactEdge{From: r, To: p.ID, Artifact: a, Hazard: HazardWAR})
				}
			}
			if s.written {
				edges = append(edges, ArtifactEdge{From: s.writer, To: p.ID, Artifact: a, Hazard: HazardWAW})
			}
			s.writer = p.ID
			s.written = true
			s.readers = s.readers[:0]
		}
	}
	return edges
}
