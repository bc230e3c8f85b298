package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// Passed reports whether all checks hold.
func (o Outcome) Passed() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// FailedChecks lists the names of failing checks.
func (o Outcome) FailedChecks() []string {
	var out []string
	for _, c := range o.Checks {
		if !c.OK {
			out = append(out, fmt.Sprintf("%s (%s)", c.Name, c.Info))
		}
	}
	return out
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID:      "EX",
		Title:   "demo",
		Columns: []string{"a", "bb"},
	}
	tab.AddRow(1, 2.34567)
	tab.AddRow("xyz", true)
	tab.Notes = append(tab.Notes, "hello")
	s := tab.String()
	for _, want := range []string{"EX — demo", "a", "bb", "2.346", "xyz", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestOutcomeChecks(t *testing.T) {
	o := Outcome{Checks: []Check{{Name: "x", OK: true}, {Name: "y", OK: false, Info: "boom"}}}
	if o.Passed() {
		t.Error("outcome with failing check passed")
	}
	fc := o.FailedChecks()
	if len(fc) != 1 || !strings.Contains(fc[0], "y") {
		t.Errorf("FailedChecks = %v", fc)
	}
}

func TestNamedUnknown(t *testing.T) {
	o := Named("E99", DefaultParams(Small))
	if o.Passed() {
		t.Error("unknown experiment should fail")
	}
}

// The full small-scale suite must pass every shape check: this is the
// repository's end-to-end statement that the paper's qualitative claims
// reproduce.
func TestSuiteSmallScaleAllChecksPass(t *testing.T) {
	if testing.Short() {
		t.Skip("suite takes a few seconds")
	}
	p := DefaultParams(Small)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			o := Named(id, p)
			if !o.Passed() {
				t.Errorf("%s failed checks: %v\n%s", id, o.FailedChecks(), o.Table)
			}
			if len(o.Table.Rows) == 0 {
				t.Errorf("%s produced no rows", id)
			}
		})
	}
}
