package experiments

import (
	"strings"
	"testing"

	"superglue/internal/core"
)

// ablationTable is RenderAblation's output for RecoveryAblation's rows.
const ablationTable = `Ablation: who pays for recovery — work per fault, counted
(on-demand: the high-priority task rebuilds only its own descriptor;
 eager: as first post-fault accessor it rebuilds the whole population)
                             high-priority task      low-priority thread
mode       descriptors  invocations  walk steps  invocations  walk steps
on-demand           16            3           1            3           1
on-demand           64            3           1            3           1
on-demand          256            3           1            3           1
eager               16           19          17            2           0
eager               64           67          65            2           0
eager              256          259         257            2           0
`

// ownWork is what one access that rebuilds only its own descriptor costs.
var ownWork = Work{Invocations: 3, WalkSteps: 1}

// ablationRows runs RecoveryAblation and checks it yields one row per
// mode and population.
func ablationRows(t *testing.T) []AblationRow {
	t.Helper()
	rows, err := RecoveryAblation()
	if err != nil {
		t.Fatalf("RecoveryAblation: %v", err)
	}
	if len(rows) != 2*len(ablationDescs) {
		t.Fatalf("%d rows; want %d", len(rows), 2*len(ablationDescs))
	}
	return rows
}

// TestRecoveryTimingShape checks the §II-C schedulability argument by
// exact counts on the first post-fault accessor, the high-priority task:
// under on-demand recovery its work per fault is the same at every
// descriptor population (its own descriptor only); under eager recovery
// it rebuilds the whole population plus its own descriptor, N+1 walk
// steps and N+3 invocations.
func TestRecoveryTimingShape(t *testing.T) {
	for _, r := range ablationRows(t) {
		n := uint64(r.Descriptors)
		want := ownWork
		if r.Mode == core.Eager {
			want = Work{Invocations: n + 3, WalkSteps: n + 1}
		}
		if r.Hi != want {
			t.Errorf("%v/%d: high-priority task %+v; want %+v", r.Mode, r.Descriptors, r.Hi, want)
		}
	}
}

// TestRecoveryInterferenceShape checks who pays for recovery: under
// on-demand recovery the low-priority thread rebuilds its own descriptor
// on its own access, while under eager recovery it finds that descriptor
// already rebuilt by the high-priority task. The rendered table, both
// threads' columns, is compared byte for byte.
func TestRecoveryInterferenceShape(t *testing.T) {
	rows := ablationRows(t)
	for _, r := range rows {
		want := ownWork
		if r.Mode == core.Eager {
			want = Work{Invocations: 2}
		}
		if r.Lo != want {
			t.Errorf("%v/%d: low-priority thread %+v; want %+v", r.Mode, r.Descriptors, r.Lo, want)
		}
	}
	var sb strings.Builder
	RenderAblation(&sb, rows)
	if sb.String() != ablationTable {
		t.Errorf("rendered table:\n%s\nwant:\n%s", sb.String(), ablationTable)
	}
}
