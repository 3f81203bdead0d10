package cliaxis

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	auto := func() []int { return []int{7, 8, 9} }
	cases := []struct {
		spec    string
		auto    func() []int
		want    string
		wantErr string
	}{
		{spec: "3", want: "[3]"},
		{spec: "3,1,2", want: "[3 1 2]"},
		{spec: " 4 , ,5,", want: "[4 5]"},
		{spec: "", want: "[]"},
		{spec: "auto", auto: auto, want: "[7 8 9]"},
		{spec: " auto ", auto: auto, want: "[7 8 9]"},
		{spec: "auto", wantErr: "-n has no auto candidate set"},
		{spec: "1,auto", auto: auto, wantErr: `-n: strconv.Atoi: parsing "auto"`},
		{spec: "1,x", wantErr: `-n: strconv.Atoi: parsing "x"`},
	}
	for _, tc := range cases {
		got, err := Parse("n", tc.spec, tc.auto, strconv.Atoi)
		if tc.wantErr != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Errorf("Parse(%q) error = %v, want prefix %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != tc.want {
			t.Errorf("Parse(%q) = %v, %v; want %s", tc.spec, got, err, tc.want)
		}
	}
}

func TestCheckKnobs(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Int("set", 0, "")
	fs.Int("unset", 0, "")
	if err := fs.Parse([]string{"-set", "0"}); err != nil {
		t.Fatal(err)
	}
	// A knob set to its default value is still set; one left alone is
	// never rejected.
	if err := CheckKnobs(fs, Knob{Flag: "unset", Needs: "x"}, Knob{Flag: "set", Needs: "y", On: true}); err != nil {
		t.Errorf("CheckKnobs rejected a knob that applies or was not set: %v", err)
	}
	err := CheckKnobs(fs, Knob{Flag: "set", Needs: "an enabled -axis"})
	if err == nil || err.Error() != "-set only applies with an enabled -axis" {
		t.Errorf("CheckKnobs error = %v, want -set only applies with an enabled -axis", err)
	}
}
