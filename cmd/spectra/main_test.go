package main

import (
	"strings"
	"testing"
)

// TestParseFlagsRejections: values the spectrum is undefined for (the
// conductivity divides by the kick; no samples or no frequencies print
// nothing) are refused at the command line, naming the flag.
func TestParseFlagsRejections(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the flag the error must name; "" means accepted
	}{
		{[]string{"-kick", "0"}, "-kick"},
		{[]string{"-steps", "0"}, "-steps"},
		{[]string{"-nw", "0"}, "-nw"},
		{[]string{"-ecut", "2", "-steps", "2", "-nw", "3"}, ""},
	} {
		_, err := parseFlags(tc.args)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}
