package table

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// dateValue is the Value of kind Date at midnight UTC.
func dateValue(year int, month time.Month, day int) Value {
	return DateValue(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

func TestParseValueNumbers(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1896", 1896},
		{" 42 ", 42},
		{"3.14", 3.14},
		{"-7", -7},
		{"1,234", 1234},
		{"$150,000", 150000},
		{"6,260", 6260},
		{"0", 0},
	}
	for _, c := range cases {
		v := ParseValue(c.in)
		if v.Kind != Number {
			t.Errorf("ParseValue(%q).Kind = %v, want Number", c.in, v.Kind)
			continue
		}
		if v.Num != c.want {
			t.Errorf("ParseValue(%q).Num = %v, want %v", c.in, v.Num, c.want)
		}
	}
}

func TestParseValueDates(t *testing.T) {
	cases := []struct {
		in   string
		want time.Time
	}{
		{"2013-06-08", time.Date(2013, 6, 8, 0, 0, 0, 0, time.UTC)},
		{"June 8, 2013", time.Date(2013, 6, 8, 0, 0, 0, 0, time.UTC)},
		{"8 January 2004", time.Date(2004, 1, 8, 0, 0, 0, 0, time.UTC)},
		{"01/02/2006", time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)},
	}
	for _, c := range cases {
		v := ParseValue(c.in)
		if v.Kind != Date {
			t.Errorf("ParseValue(%q).Kind = %v, want Date", c.in, v.Kind)
			continue
		}
		if want := float64(c.want.Unix() / 86400); v.Num != want {
			t.Errorf("ParseValue(%q).Num = %v, want day %v", c.in, v.Num, want)
		}
	}
}

func TestParseValueStrings(t *testing.T) {
	for _, in := range []string{"Greece", "USL A-League", "Did not qualify", "", "4th Round"} {
		v := ParseValue(in)
		if v.Kind != String {
			t.Errorf("ParseValue(%q).Kind = %v, want String", in, v.Kind)
		}
	}
}

func TestValueEqualCaseInsensitive(t *testing.T) {
	if !StringValue("Greece").Equal(StringValue("greece")) {
		t.Error("string equality should be case-insensitive")
	}
	if StringValue("Greece").Equal(StringValue("France")) {
		t.Error("distinct strings must not be equal")
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	// "2004" extracted as a number must match the entity string "2004".
	if !NumberValue(2004).Equal(StringValue("2004")) {
		t.Error("number 2004 should equal string \"2004\"")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NumberValue(1), NumberValue(2), -1},
		{NumberValue(2), NumberValue(2), 0},
		{NumberValue(3), NumberValue(2), 1},
		{StringValue("a"), StringValue("b"), -1},
		{StringValue("B"), StringValue("a"), 1},
		{dateValue(2004, 1, 1), dateValue(2008, 1, 1), -1},
		{dateValue(2004, 1, 1), dateValue(2004, 1, 1), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueFloat(t *testing.T) {
	if f, ok := NumberValue(3.5).Float(); !ok || f != 3.5 {
		t.Errorf("NumberValue.Float() = %v,%v", f, ok)
	}
	if _, ok := StringValue("x").Float(); ok {
		t.Error("StringValue.Float() should report false")
	}
	a, _ := dateValue(2004, 1, 2).Float()
	b, _ := dateValue(2004, 1, 1).Float()
	if a-b != 1 {
		t.Errorf("consecutive dates should differ by 1 day, got %v", a-b)
	}
}

func TestValueStringRoundTrip(t *testing.T) {
	if got := NumberValue(1896).String(); got != "1896" {
		t.Errorf("NumberValue(1896).String() = %q", got)
	}
	if got := NumberValue(2.5).String(); got != "2.5" {
		t.Errorf("NumberValue(2.5).String() = %q", got)
	}
	if got := dateValue(2013, 6, 8).String(); got != "2013-06-08" {
		t.Errorf("date String() = %q", got)
	}
}

// Property: Compare is antisymmetric and Equal values compare to zero.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		va, vb := NumberValue(a), NumberValue(b)
		return va.Compare(vb) == -vb.Compare(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: parsing the rendered form of a number value yields an equal value.
func TestParseRenderRoundTripProperty(t *testing.T) {
	f := func(n int32) bool {
		v := NumberValue(float64(n))
		return ParseValue(v.String()).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
