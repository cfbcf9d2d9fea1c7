package mcmgpu

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"mcmgpu/internal/analytic"
)

// updateGolden regenerates testdata/golden.json instead of diffing against
// it: `go test -run TestGoldenResults -update-golden .`, or set
// UPDATE_GOLDEN=1 for environments where test flags are awkward (CI, make).
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current simulator output")

const goldenPath = "testdata/golden.json"

// goldenTable is one experiment's snapshot. The Table type is already plain
// exported data, but the snapshot keys it by experiment id so the diff can
// name what moved.
type goldenTable struct {
	ID    string     `json:"id"`
	Title string     `json:"title"`
	Note  string     `json:"note,omitempty"`
	Head  []string   `json:"headers"`
	Rows  [][]string `json:"rows"`
}

// goldenOptions is the fixed reduced scale every golden run uses. Small
// enough to keep the full experiment sweep in single-digit seconds, and
// audited: a conservation-law violation fails the harness before any diff.
func goldenOptions(t *testing.T) Options {
	return Options{
		Scale:          0.05,
		MaxPerCategory: 1,
		Workers:        4,
		Audit:          true,
		Warnf: func(format string, args ...interface{}) {
			t.Helper()
			t.Errorf("golden run warning: "+format, args...)
		},
	}
}

// goldenRun executes every experiment at the golden scale and returns the
// snapshots sorted by id, followed by the estimator's table.
func goldenRun(t *testing.T) []goldenTable {
	t.Helper()
	drivers := Experiments()
	ids := make([]string, 0, len(drivers))
	for id := range drivers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	opt := goldenOptions(t)
	out := make([]goldenTable, 0, len(ids))
	for _, id := range ids {
		tab, err := drivers[id](opt)
		if err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		out = append(out, goldenTable{
			ID: id, Title: tab.Title, Note: tab.Note, Head: tab.Headers, Rows: tab.Rows,
		})
	}
	return append(out, goldenEstimator(t))
}

// goldenEstimator pins the analytic estimator the way the experiment tables
// pin the engine: one row per TestAnalyticValidation cell, with every float
// at full precision, so any change to a prediction names its cell.
func goldenEstimator(t *testing.T) goldenTable {
	t.Helper()
	tab := goldenTable{
		ID:    "estimator",
		Title: "Analytic estimator on the validation cells",
		Head: []string{"Cell", "Cycles", "L1 hit", "L1.5 hit", "L2 hit", "Local",
			"Wire bytes", "DRAM bytes", "Bottleneck"},
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, fam := range valFamilies() {
		for _, cfg := range fam.configs {
			e, err := analytic.NewEstimator(cfg)
			if err != nil {
				t.Fatalf("%s/%s: estimator: %v", fam.name, cfg.Name, err)
			}
			for _, s := range fam.workloads() {
				est, err := e.Estimate(s, fam.atScale())
				if err != nil {
					t.Fatalf("%s/%s/%s: estimate: %v", fam.name, cfg.Name, s.Name, err)
				}
				tab.Rows = append(tab.Rows, []string{
					fam.name + "/" + cfg.Name + "/" + s.Name,
					g(est.Cycles), g(est.L1HitRate), g(est.L15HitRate), g(est.L2HitRate),
					g(est.LocalFraction), g(est.InterModuleBytes), g(est.DRAMBytes), est.Bottleneck,
				})
			}
		}
	}
	return tab
}

// TestGoldenResults is the repository's end-to-end regression net: every
// experiment driver's full table output at a fixed reduced scale, diffed
// field by field against the committed snapshot. Any change to the model
// that moves any number in any table — intended or not — shows up here as a
// named (experiment, row, column) difference. Intended changes regenerate
// the snapshot with -update-golden (or UPDATE_GOLDEN=1) and commit the diff,
// which makes model-output changes reviewable in the PR like any other code.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regression simulates every experiment; skipped in -short")
	}
	got := goldenRun(t)

	if *updateGolden || os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d experiment snapshots", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden snapshot (regenerate with -update-golden): %v", err)
	}
	var want []goldenTable
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt %s: %v", goldenPath, err)
	}

	wantByID := make(map[string]goldenTable, len(want))
	for _, w := range want {
		wantByID[w.ID] = w
	}
	gotByID := make(map[string]goldenTable, len(got))
	for _, g := range got {
		gotByID[g.ID] = g
	}
	for _, w := range want {
		if _, ok := gotByID[w.ID]; !ok {
			t.Errorf("experiment %s present in the snapshot but no longer produced", w.ID)
		}
	}
	for _, g := range got {
		w, ok := wantByID[g.ID]
		if !ok {
			t.Errorf("new experiment %s has no snapshot (regenerate with -update-golden)", g.ID)
			continue
		}
		diffTable(t, g, w)
	}
}

// diffTable reports every field-level difference between a produced table
// and its snapshot, named precisely enough to judge the change from the test
// log alone.
func diffTable(t *testing.T, got, want goldenTable) {
	t.Helper()
	id := got.ID
	if got.Title != want.Title {
		t.Errorf("%s: title = %q, want %q", id, got.Title, want.Title)
	}
	if got.Note != want.Note {
		t.Errorf("%s: note = %q, want %q", id, got.Note, want.Note)
	}
	if len(got.Head) != len(want.Head) {
		t.Errorf("%s: %d columns, want %d", id, len(got.Head), len(want.Head))
	} else {
		for c := range got.Head {
			if got.Head[c] != want.Head[c] {
				t.Errorf("%s: header[%d] = %q, want %q", id, c, got.Head[c], want.Head[c])
			}
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Errorf("%s: %d rows, want %d", id, len(got.Rows), len(want.Rows))
		return
	}
	for r := range got.Rows {
		if len(got.Rows[r]) != len(want.Rows[r]) {
			t.Errorf("%s: row %d has %d cells, want %d", id, r, len(got.Rows[r]), len(want.Rows[r]))
			continue
		}
		for c := range got.Rows[r] {
			if got.Rows[r][c] != want.Rows[r][c] {
				t.Errorf("%s: row %d (%s), column %q: %q, want %q",
					id, r, rowLabel(got.Rows[r]), colLabel(got.Head, c), got.Rows[r][c], want.Rows[r][c])
			}
		}
	}
}

func rowLabel(row []string) string {
	if len(row) == 0 {
		return "?"
	}
	return row[0]
}

func colLabel(head []string, c int) string {
	if c < len(head) {
		return head[c]
	}
	return "?"
}
