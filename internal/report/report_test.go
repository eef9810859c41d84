package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "Demo",
		Headers: []string{"name", "value"},
	}
	tb.AddRow("alpha", "1")
	tb.AddRow("a-much-longer-name", "22")
	tb.AddNote("note %d", 7)
	s := tb.String()
	if !strings.Contains(s, "Demo\n====") {
		t.Error("missing title underline")
	}
	lines := strings.Split(s, "\n")
	// Header and rows align: the "value" column starts at the same offset.
	var idx []int
	for _, ln := range lines {
		if strings.Contains(ln, "1") && strings.Contains(ln, "alpha") {
			idx = append(idx, strings.Index(ln, "1"))
		}
		if strings.Contains(ln, "22") {
			idx = append(idx, strings.Index(ln, "22"))
		}
	}
	if len(idx) != 2 || idx[0] != idx[1] {
		t.Errorf("columns not aligned: %v\n%s", idx, s)
	}
	if !strings.Contains(s, "note: note 7") {
		t.Error("missing note")
	}
}

func TestTableWithoutTitleOrHeaders(t *testing.T) {
	tb := &Table{}
	tb.AddRow("x")
	if s := tb.String(); !strings.Contains(s, "x") || strings.Contains(s, "=") {
		t.Errorf("bare table render wrong: %q", s)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[string]string{
		F(3.14159, 2): "3.14",
		Ratio(2.5):    "2.50x",
		Seconds(2.5):  "2.5s",
		Seconds(3e-3): "3ms",
		Seconds(4e-6): "4us",
		Seconds(5e-9): "5ns",
		Joules(2500):  "2.5kJ",
		Joules(3.2):   "3.2J",
		Joules(1e-3):  "1mJ",
		Joules(2e-6):  "2uJ",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}
