package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"metalsvm/internal/scc"
)

// TestModesEnumerateCells pins which cells each mode runs, on the paper
// chip and on a -chips/-grid machine, and that only topology-aware cells
// run on the latter.
func TestModesEnumerateCells(t *testing.T) {
	topo := scc.MultiChip(2, scc.Grid(2, 2, 2)).Normalized()
	cases := []struct {
		name       string
		m          mode
		paper, top string
	}{
		{"race", modeRace, "laplace matmul taskfarm", "laplace matmul taskfarm"},
		{"perturb", modePerturb, "fig6 fig7 table1 fig9 faults kvstore", "kvstore"},
		{"sanitize", modeSanitize, "fig6 fig7 laplace matmul taskfarm", "laplace matmul taskfarm"},
		{"chaos", modeChaos, "fig6 fig7 laplace matmul dir partition kvstore", "laplace matmul dir partition kvstore"},
		{"observe", modeObserve, "fig6 fig7 table1 fig9 repldir", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := names(enumerate(c.m, nil), " "); got != c.paper {
				t.Errorf("paper chip runs %q, want %q", got, c.paper)
			}
			onTopo := enumerate(c.m, &topo)
			if got := names(onTopo, " "); got != c.top {
				t.Errorf("-chips/-grid runs %q, want %q", got, c.top)
			}
			for _, cl := range onTopo {
				if !cl.topo {
					t.Errorf("cell %s is not topology-aware but runs under -chips/-grid", cl.name)
				}
			}
		})
	}
}

// TestCellTableComplete: every cell runs somewhere, and each mode finds
// what it reads from the cells it enumerates.
func TestCellTableComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.name] {
			t.Errorf("cell %s listed twice", c.name)
		}
		seen[c.name] = true
		if c.modes == 0 || c.run == nil || c.accept == nil {
			t.Errorf("cell %s lacks a mode, a runner or an acceptance check", c.name)
		}
		if c.modes&modeObserve != 0 && c.describe == nil {
			t.Errorf("observe cell %s has no headline", c.name)
		}
		if c.modes&modeRace != 0 && !c.topo {
			t.Errorf("application cell %s does not run on the -chips/-grid member set", c.name)
		}
	}
}

// TestUsageListsTables: the usage text is generated from the command and
// cell tables, so every command and every observe cell appears in it.
func TestUsageListsTables(t *testing.T) {
	out := captureStderr(t, func() { run([]string{"-no-such-flag"}) })
	for _, c := range commands {
		if !strings.Contains(out, "sccbench "+c.name) {
			t.Errorf("usage omits command %s", c.name)
		}
	}
	if want := "-chips N -grid WxHxC fig6|fig7|fig9|scale|kvstore"; !strings.Contains(out, want) {
		t.Errorf("usage omits %q", want)
	}
	if want := "fig6|fig7|table1|fig9|repldir|all"; !strings.Contains(out, want) {
		t.Errorf("usage omits the observe cells %q", want)
	}
}

// TestFailedVerificationExits1: a command whose verification fails makes
// the process exit 1 in table mode and in -json mode, alone and inside
// `all`.
func TestFailedVerificationExits1(t *testing.T) {
	saved := commands
	t.Cleanup(func() { commands = saved })
	commands = []command{
		{name: "good", run: func(env, *results) bool { return true }},
		{name: "bad", run: func(env, *results) bool { return false }},
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"good"}, 0},
		{[]string{"-json", "good"}, 0},
		{[]string{"bad"}, 1},
		{[]string{"-json", "bad"}, 1},
		{[]string{"all"}, 1},
		{[]string{"-json", "all"}, 1},
	} {
		var got int
		captureStdout(t, func() { got = run(c.args) })
		if got != c.want {
			t.Errorf("sccbench %s exited %d, want %d", strings.Join(c.args, " "), got, c.want)
		}
	}
}

// TestSanitizeHonorsTopology: -sanitize under -chips/-grid runs the
// application cells on the small chip-spanning member set of that machine,
// exactly as -check does, and skips the paper-chip harness cells.
func TestSanitizeHonorsTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six sanitized simulations")
	}
	var code int
	out := captureStdout(t, func() {
		code = run([]string{"-chips", "2", "-grid", "2x2x2", "-parallel", "2", "-sanitize"})
	})
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "sancheck: 2 chip(s), 4 cores activated") {
		t.Errorf("sanitize did not report the 2-chip machine:\n%s", out)
	}
	if got := strings.Count(out, " ok ("); got != 6 || strings.Contains(out, "harness") {
		t.Errorf("want the six application cells only, got %d ok lines:\n%s", got, out)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what f wrote.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	return capture(t, &os.Stdout, f)
}

// captureStderr runs f with os.Stderr redirected and returns what f wrote.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	return capture(t, &os.Stderr, f)
}

func capture(t *testing.T, file **os.File, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := *file
	*file = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		io.Copy(&b, r)
		done <- b.String()
	}()
	defer func() { *file = saved }()
	f()
	w.Close()
	return <-done
}
