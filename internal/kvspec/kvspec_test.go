package kvspec

import (
	"strings"
	"testing"
	"time"
)

// sample exercises every supported field type.
type sample struct {
	Name  string
	N     int
	Seed  uint64
	Rate  float64
	On    bool
	Every time.Duration
}

func (c *sample) table() Table {
	return Table{Prefix: "pkg", Noun: "sample spec", Fields: []Field{
		{Key: "name", Ptr: &c.Name},
		{Key: "n", Ptr: &c.N},
		{Key: "seed", Ptr: &c.Seed},
		{Key: "rate", Ptr: &c.Rate},
		{Key: "on", Ptr: &c.On},
		{Key: "every", Ptr: &c.Every},
	}}
}

func TestParseAllTypesAndSeparators(t *testing.T) {
	c := sample{N: 7, Rate: 0.5} // preloaded defaults
	seen, err := c.table().Parse("name=x, seed=18446744073709551615\ton=true\nevery=1m30s")
	if err != nil {
		t.Fatal(err)
	}
	want := sample{Name: "x", N: 7, Seed: 1<<64 - 1, Rate: 0.5, On: true, Every: 90 * time.Second}
	if c != want {
		t.Fatalf("parsed %+v, want %+v", c, want)
	}
	if len(seen) != 4 || !seen["name"] || !seen["every"] || seen["n"] || seen["rate"] {
		t.Fatalf("seen = %v: absent keys must keep their defaults and stay unreported", seen)
	}
	if seen, err := c.table().Parse(" ,\n"); err != nil || len(seen) != 0 {
		t.Fatalf("separator-only spec: seen=%v err=%v, want an empty parse", seen, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"n", `pkg: spec entry "n" is not key=value`},
		{"n=", `pkg: spec entry "n=" is not key=value`},
		{"=3", `pkg: spec entry "=3" is not key=value`},
		{"n=1,n=2", `pkg: spec key "n" given twice`},
		{"bogus=1", `pkg: unknown sample spec key "bogus"`},
		{"n=1.5", `pkg: bad n "1.5": strconv.Atoi: parsing "1.5": invalid syntax`},
		{"seed=-1", `pkg: bad seed "-1": strconv.ParseUint: parsing "-1": invalid syntax`},
		{"rate=fast", `pkg: bad rate "fast": strconv.ParseFloat: parsing "fast": invalid syntax`},
		{"on=maybe", `pkg: bad on "maybe": not a bool`},
		{"every=soon", `pkg: bad every "soon": time: invalid duration "soon"`},
	}
	for _, tc := range cases {
		var c sample
		if _, err := c.table().Parse(tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q) error = %v, want %q", tc.spec, err, tc.want)
		}
	}
}

func TestRenderIsSortedAndAFixedPoint(t *testing.T) {
	c := sample{Name: "http://h:1", N: -3, Seed: 9, Rate: 1e-7, On: true, Every: 1500 * time.Millisecond}
	canon := c.table().Render()
	if want := "every=1.5s,n=-3,name=http://h:1,on=true,rate=1e-07,seed=9"; canon != want {
		t.Fatalf("Render = %q, want %q", canon, want)
	}
	var back sample
	if _, err := back.table().Parse(canon); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip diverged:\n cfg:  %+v\n back: %+v", c, back)
	}
	if again := back.table().Render(); again != canon {
		t.Fatalf("canonical render unstable: %q vs %q", canon, again)
	}
}

func TestUnsupportedFieldTypePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "unsupported field type") {
			t.Fatalf("recover() = %v, want an unsupported-type panic", r)
		}
	}()
	var f float32
	Table{Fields: []Field{{Key: "f", Ptr: &f}}}.Render()
}
