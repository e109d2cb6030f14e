package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestE23ModelBeatsStatic pins the experiment's headline claim (and ISSUE
// 10's acceptance criterion): on at least one transient scenario the
// model-driven controller must beat the peak-provisioned static plan on
// energy at equal-or-better SLA misses.
func TestE23ModelBeatsStatic(t *testing.T) {
	rows, err := e23Rows(quickCfg())
	for _, r := range rows {
		extra := ""
		if r.model {
			extra = " " + r.stats.String()
		}
		t.Logf("%-12s %-8s power=%.1fW weighted=%.3fs misses=%d worst=%.2f%s",
			r.scenario, r.strategy, r.power, r.weighted, r.misses, r.worstFrac, extra)
	}
	if err != nil {
		t.Fatalf("e23Rows: %v", err)
	}
	if !e23ModelWins(rows) {
		t.Fatal("model controller beat the static plan on no scenario")
	}
}

// cannedRun is an experiment that returns fixed tables and a fixed error.
type cannedRun struct {
	tables []*Table
	err    error
}

func (cannedRun) ID() string                     { return "E23" }
func (cannedRun) Title() string                  { return "canned" }
func (c cannedRun) Run(Config) ([]*Table, error) { return c.tables, c.err }

// TestE23FailedCheckKeepsTable pins the failure path of E23's headline
// check. Rows shaped like the full-fidelity run, where the model arm saves
// power but misses one SLA on every scenario and static misses none, fail
// the check; the report must still carry the whole table beside the error,
// and RunAndPrint must render that table before returning the error.
func TestE23FailedCheckKeepsTable(t *testing.T) {
	var rows []*e23Row
	for _, sc := range []string{"diurnal", "flash", "staircase"} {
		rows = append(rows,
			&e23Row{scenario: sc, strategy: "static", power: 900, weighted: 0.5, worstFrac: 0.9},
			&e23Row{scenario: sc, strategy: "reactive", power: 700, weighted: 0.8, misses: 1, worstFrac: 1.4},
			&e23Row{scenario: sc, strategy: "model", power: 650, weighted: 0.7, misses: 1, worstFrac: 1.2, model: true})
	}
	tables, err := e23Report(rows)
	if err == nil {
		t.Fatal("headline check passed although the model arm misses more SLAs than static on every scenario")
	}
	if len(tables) != 1 || len(tables[0].Rows) != len(rows) {
		t.Fatalf("failed check returned %d tables, want 1 table of %d rows", len(tables), len(rows))
	}

	var buf bytes.Buffer
	if err := RunAndPrint(cannedRun{tables, err}, quickCfg(), &buf); err == nil {
		t.Fatal("RunAndPrint dropped the experiment's error")
	}
	if out := buf.String(); strings.Count(out, "model") != 3 || !strings.Contains(out, "staircase") {
		t.Errorf("RunAndPrint did not render the failed experiment's table:\n%s", out)
	}
}
