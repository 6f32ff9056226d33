package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestStatsEveryModel runs the command with -stats under every model: each
// must verify its checksum and print the metrics snapshot, the SVM variants
// with their mailbox and SVM counters.
func TestStatsEveryModel(t *testing.T) {
	for _, tc := range []struct {
		model string
		want  []string
	}{
		{"strong", []string{"cpu.loads", "mailbox.checks", "svm."}},
		{"lazy", []string{"cpu.loads", "mailbox.checks", "svm."}},
		{"ircce", []string{"cpu.loads"}},
	} {
		t.Run(tc.model, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := []string{"-model", tc.model, "-stats", "-trace", "-cores", "2", "-rows", "16", "-cols", "16", "-iters", "2"}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d; stderr: %s; stdout:\n%s", code, errOut.String(), out.String())
			}
			s := out.String()
			for _, w := range append([]string{"MATCHES serial reference", "\nstatistics:\n", "\nprotocol trace:\n"}, tc.want...) {
				if !strings.Contains(s, w) {
					t.Errorf("output lacks %q:\n%s", w, s)
				}
			}
		})
	}
}

// TestBadArguments checks the usage errors' exit code.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-model", "bogus"}, {"-cores", "0"}, {"-nosuchflag"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
