package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"drugtree/internal/lint/loader"
)

func loadFixture(t *testing.T, rel, path string) *loader.Package {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := loader.LoadDir(fset, filepath.Join("testdata", filepath.FromSlash(rel)), path)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// The query fixture carries two clockcheck violations, one suppressed
// in standalone form and one trailing. Within budget the tree is
// clean and both suppressions are counted.
func TestSuppressionWithinBudget(t *testing.T) {
	pkg := loadFixture(t, "suppress/src/query", "query")
	res := CheckBudget([]*loader.Package{pkg}, map[string]int{"clockcheck": 2})
	if !res.OK() {
		t.Fatalf("expected clean run, got findings=%v budget errors=%v", res.Findings, res.BudgetErrors)
	}
	if got := res.Suppressed["clockcheck"]; got != 2 {
		t.Fatalf("suppressed clockcheck = %d, want 2", got)
	}
}

// The same fixture over budget: the suppressions still silence the
// findings, but the run fails with a budget error naming the knob.
func TestSuppressionBudgetExceeded(t *testing.T) {
	pkg := loadFixture(t, "suppress/src/query", "query")
	res := CheckBudget([]*loader.Package{pkg}, map[string]int{"clockcheck": 1})
	if res.OK() {
		t.Fatal("expected a budget error")
	}
	if len(res.Findings) != 0 {
		t.Fatalf("suppressions should still apply, got findings %v", res.Findings)
	}
	if len(res.BudgetErrors) != 1 || !strings.Contains(res.BudgetErrors[0], "budget is 1") {
		t.Fatalf("budget errors = %v, want one mentioning the cap", res.BudgetErrors)
	}
}

// Malformed directives — missing reason, unknown analyzer, wrong
// shape — are errors, not silent no-ops.
func TestMalformedSuppressions(t *testing.T) {
	pkg := loadFixture(t, "suppress/src/badsup", "badsup")
	res := CheckBudget([]*loader.Package{pkg}, Budget)
	if res.OK() {
		t.Fatal("expected suppression errors")
	}
	wantFragments := []string{"gives no reason", "unknown analyzer", "malformed suppression"}
	if len(res.BudgetErrors) != len(wantFragments) {
		t.Fatalf("budget errors = %v, want %d", res.BudgetErrors, len(wantFragments))
	}
	joined := strings.Join(res.BudgetErrors, "\n")
	for _, frag := range wantFragments {
		if !strings.Contains(joined, frag) {
			t.Errorf("budget errors missing %q:\n%s", frag, joined)
		}
	}
}

// Every analyzer must have an explicit budget entry: a missing key
// reads as zero at enforcement time, which is safe, but an explicit
// ledger keeps the policy reviewable in one place. The suite is nine
// analyzers, and the ledger totals the store's three reviewed fsyncs
// under a lock.
func TestBudgetCoversEveryAnalyzer(t *testing.T) {
	if len(All()) != 9 {
		t.Errorf("All() has %d analyzers, want 9", len(All()))
	}
	total := 0
	for _, a := range All() {
		n, ok := Budget[a.Name]
		if !ok {
			t.Errorf("Budget has no entry for %s", a.Name)
		}
		total += n
	}
	if total != 3 {
		t.Errorf("Budget totals %d suppressions, want 3", total)
	}
}

// A budget entry naming no known analyzer is a config bug — a typo
// there would silently grant zero-or-infinite budget to nothing — so
// the run fails loudly instead of ignoring the key.
func TestUnknownBudgetKeyRejected(t *testing.T) {
	pkg := loadFixture(t, "suppress/src/query", "query")
	budget := map[string]int{"clockcheck": 2, "clokcheck": 1} // note the typo
	res := CheckBudget([]*loader.Package{pkg}, budget)
	if res.OK() {
		t.Fatal("budget with an unknown key passed")
	}
	found := false
	for _, e := range res.BudgetErrors {
		if strings.Contains(e, `unknown analyzer "clokcheck"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("budget errors %v do not name the unknown key", res.BudgetErrors)
	}
}

// Findings come out in one total order — file, line, column,
// analyzer, then message — and identically on every run, so a CI log
// diff is a real change and never map-iteration noise. The check runs
// the sendcheck, errcmp and lockcheck fixtures (findings from five
// analyzers, several per file, lockcheck's per-site and cross-package
// ones among them) through the whole suite twice with everything
// unsuppressed.
func TestFindingOrderDeterministic(t *testing.T) {
	run := func() []Finding {
		pkgs := []*loader.Package{
			loadFixture(t, "sendcheck/src/sends", "sends"),
			loadFixture(t, "errcmp/src/errw", "errw"),
			loadFixture(t, "lockcheck/src/locks", "locks"),
			loadFixture(t, "lockcheck/src/locka", "locka"),
			loadFixture(t, "lockcheck/src/lockb", "lockb"),
		}
		return CheckBudget(pkgs, Budget).Findings
	}
	text := func(fs []Finding) string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = f.String()
		}
		return strings.Join(out, "\n")
	}
	first := run()
	if len(first) < 4 {
		t.Fatalf("fixtures produced %d findings, want several to order: %v", len(first), first)
	}
	if a, b := text(first), text(run()); a != b {
		t.Fatalf("finding order changed between runs:\n%s\n--- vs ---\n%s", a, b)
	}
	// And the order is the documented one, not merely stable.
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		ka := []string{a.Pos.Filename, pad(a.Pos.Line), pad(a.Pos.Column), a.Analyzer, a.Message}
		kb := []string{b.Pos.Filename, pad(b.Pos.Line), pad(b.Pos.Column), b.Analyzer, b.Message}
		if strings.Join(ka, "\x00") > strings.Join(kb, "\x00") {
			t.Fatalf("findings out of order at %d: %v before %v", i, a, b)
		}
	}
}

func pad(n int) string { return fmt.Sprintf("%08d", n) }
