package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// pkgSrc is one synthetic package for a test, in dependency order.
type pkgSrc struct {
	path string
	src  string
}

// fakeTrace stands in for the real trace package so tracenil tests don't
// depend on the whole tree.
var fakeTrace = pkgSrc{path: tracePkgPath, src: `
package trace
type Event struct{ Arg uint64 }
type Buffer struct{ n int }
func (b *Buffer) Emit(arg uint64) {
	if b == nil {
		return
	}
	b.n++
}
`}

// check typechecks the packages in order and runs the analyzer over the
// last one, returning the diagnostic messages.
func check(t *testing.T, a *Analyzer, pkgs ...pkgSrc) []string {
	t.Helper()
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	loaded := map[string]*types.Package{}
	var last *Pass
	for _, ps := range pkgs {
		f, err := parser.ParseFile(fset, strings.ReplaceAll(ps.path, "/", "_")+".go",
			ps.src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		info := newInfo()
		cfg := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := loaded[path]; ok {
				return p, nil
			}
			return std.Import(path)
		})}
		tpkg, err := cfg.Check(ps.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		loaded[ps.path] = tpkg
		last = &Pass{Analyzer: a, Fset: fset, Files: []*ast.File{f}, Pkg: tpkg, Info: info}
	}
	var msgs []string
	last.Report = func(d Diagnostic) { msgs = append(msgs, d.Message) }
	if err := a.Run(last); err != nil {
		t.Fatal(err)
	}
	return msgs
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func wantFindings(t *testing.T, msgs []string, substrs ...string) {
	t.Helper()
	if len(msgs) != len(substrs) {
		t.Fatalf("got %d finding(s) %q, want %d", len(msgs), msgs, len(substrs))
	}
	for i, sub := range substrs {
		if !strings.Contains(msgs[i], sub) {
			t.Fatalf("finding %d = %q, want substring %q", i, msgs[i], sub)
		}
	}
}

func TestSimTimeFlagsHostClock(t *testing.T) {
	msgs := check(t, SimTime, pkgSrc{path: "metalsvm/internal/kernel", src: `
package kernel
import "time"
func bad() int64 { return time.Now().UnixNano() }
`})
	wantFindings(t, msgs, "time.Now")
}

func TestSimTimeFlagsHostTimers(t *testing.T) {
	msgs := check(t, SimTime, pkgSrc{path: "metalsvm/internal/svm", src: `
package svm
import "time"
func bad() {
	time.Sleep(time.Millisecond)
	<-time.After(time.Second)
	_ = time.NewTimer(time.Second)
}
`})
	wantFindings(t, msgs, "time.Sleep", "time.After", "time.NewTimer")
}

func TestSimTimeAllowsDurationArithmetic(t *testing.T) {
	msgs := check(t, SimTime, pkgSrc{path: "metalsvm/internal/svm", src: `
package svm
import "time"
func ok(d time.Duration) time.Duration { return d * 2 }
`})
	wantFindings(t, msgs)
}

func TestSimTimeHonorsHostParallelAnnotation(t *testing.T) {
	msgs := check(t, SimTime, pkgSrc{path: "metalsvm/internal/bench/runner", src: `
//metalsvm:host-parallel
package runner
import "time"
func ok() time.Time { return time.Now() }
`})
	wantFindings(t, msgs)
}

func TestSimTimeIgnoresHostParallelInCorePackages(t *testing.T) {
	// The annotation is rejected by simdet in core packages; simtime must
	// not honor it there either.
	msgs := check(t, SimTime, pkgSrc{path: "metalsvm/internal/svm", src: `
//metalsvm:host-parallel
package svm
import "time"
func bad() time.Time { return time.Now() }
`})
	wantFindings(t, msgs, "time.Now")
}

func TestSimDetFlagsMathRand(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/svm", src: `
package svm
import "math/rand"
func bad() int { return rand.Int() }
`})
	wantFindings(t, msgs, "math/rand")
}

func TestSimDetFlagsGoStatement(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/mailbox", src: `
package mailbox
func bad() { go func() {}() }
`})
	wantFindings(t, msgs, "go statement")
}

func TestSimDetFlagsMapRange(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/scc", src: `
package scc
func bad(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`})
	wantFindings(t, msgs, "map iteration")
}

func TestSimDetHonorsDirective(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/scc", src: `
package scc
import "sort"
func ok(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//metalsvm:deterministic — sorted below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
`})
	wantFindings(t, msgs)
}

func TestSimDetAllowsSliceRangeAndSimTime(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/cpu", src: `
package cpu
func ok(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}
`})
	wantFindings(t, msgs)
}

func TestSimDetExemptsSimPackage(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/sim", src: `
package sim
func engine() { go func() {}() }
`})
	wantFindings(t, msgs)
}

func TestSimDetSimHostParallelAnnotationDoesNotAllowSyncImports(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/sim", src: `
//metalsvm:host-parallel
package sim
import (
	"sync"
	"sync/atomic"
)
func parallel() {
	var wg sync.WaitGroup
	var n atomic.Int64
	n.Add(1)
	wg.Wait()
}
`})
	wantFindings(t, msgs, "not allowed in core simulation package metalsvm/internal/sim",
		`import "sync" in internal/sim`, `import "sync/atomic" in internal/sim`)
}

func TestSimDetSimFlagsSyncImport(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/sim", src: `
package sim
import "sync"
func sneaky() { var mu sync.Mutex; mu.Lock(); mu.Unlock() }
`})
	wantFindings(t, msgs, `import "sync" in internal/sim`)
}

func TestTraceNilFlagsEventLiteral(t *testing.T) {
	msgs := check(t, TraceNil, fakeTrace, pkgSrc{path: "metalsvm/internal/svm", src: `
package svm
import "metalsvm/internal/trace"
func bad() trace.Event { return trace.Event{Arg: 1} }
`})
	wantFindings(t, msgs, "trace.Event constructed outside")
}

func TestTraceNilAllowsEmitCalls(t *testing.T) {
	msgs := check(t, TraceNil, fakeTrace, pkgSrc{path: "metalsvm/internal/svm", src: `
package svm
import "metalsvm/internal/trace"
func ok(b *trace.Buffer) { b.Emit(1) }
`})
	wantFindings(t, msgs)
}

func TestTraceNilRequiresGuard(t *testing.T) {
	msgs := check(t, TraceNil, pkgSrc{path: tracePkgPath, src: `
package trace
type Buffer struct{ n int }
func (b *Buffer) Emit(arg uint64) {
	b.n++
}
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}
func (b *Buffer) reset() { b.n = 0 } // unexported: no guard required
`})
	wantFindings(t, msgs, "(*Buffer).Emit lacks the leading nil-receiver guard")
}

// TestTreeIsClean runs the whole suite over the real module: the repo must
// stay free of determinism and tracing violations.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full tree")
	}
	l, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loader found only %d packages", len(pkgs))
	}
	for _, pkg := range pkgs {
		diags, err := pkg.Analyze(All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s", l.Fset.Position(d.Pos), d.Message)
		}
	}
}

func TestSimDetHostParallelAllowsGoAndClock(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/bench/runner", src: `
// Package runner fans simulations across host workers.
//
//metalsvm:host-parallel
package runner
import "time"
func ok() time.Duration {
	start := time.Now()
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	return time.Since(start)
}
`})
	wantFindings(t, msgs)
}

func TestSimDetHostParallelStillFlagsMapRange(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/bench/runner", src: `
//metalsvm:host-parallel
package runner
func bad(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`})
	wantFindings(t, msgs, "map iteration")
}

func TestSimDetGoStatementStillFlaggedWithoutAnnotation(t *testing.T) {
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/bench", src: `
package bench
func bad() { go func() {}() }
`})
	wantFindings(t, msgs, "go statement")
}

func TestSimDetHostParallelRejectedInCorePackages(t *testing.T) {
	for _, path := range []string{
		"metalsvm/internal/sim",
		"metalsvm/internal/cpu",
		"metalsvm/internal/svm",
		"metalsvm/internal/mesh",
		"metalsvm/internal/apps/laplace",
	} {
		pkg := path[strings.LastIndex(path, "/")+1:]
		msgs := check(t, SimDet, pkgSrc{path: path, src: `
//metalsvm:host-parallel
package ` + pkg + `
func f() {}
`})
		wantFindings(t, msgs, "not allowed in core simulation package")
	}
}

// fakeSVM stands in for the real svm package so locksite tests don't depend
// on the whole tree.
var fakeSVM = pkgSrc{path: svmPkgPath, src: `
package svm
type Handle struct{ n int }
func (h *Handle) Lock(id int)   { h.n++ }
func (h *Handle) Unlock(id int) { h.n-- }
func (h *Handle) Barrier()      {}
`}

func TestLockSiteFlagsBarrierWhileHeld(t *testing.T) {
	msgs := check(t, LockSite, fakeSVM, pkgSrc{path: "metalsvm/internal/apps/demo", src: `
package demo
import "metalsvm/internal/svm"
func bad(h *svm.Handle) {
	h.Lock(3)
	h.Barrier()
	h.Unlock(3)
}
`})
	wantFindings(t, msgs, "barrier reached while holding lock 3")
}

func TestLockSiteFlagsOrderCycle(t *testing.T) {
	msgs := check(t, LockSite, fakeSVM, pkgSrc{path: "metalsvm/internal/apps/demo", src: `
package demo
import "metalsvm/internal/svm"
func a(h *svm.Handle) {
	h.Lock(1)
	h.Lock(2)
	h.Unlock(2)
	h.Unlock(1)
}
func b(h *svm.Handle) {
	h.Lock(2)
	h.Lock(1)
	h.Unlock(1)
	h.Unlock(2)
}
`})
	wantFindings(t, msgs, "lock acquisition order cycle")
}

func TestLockSiteFlagsSelfDeadlock(t *testing.T) {
	msgs := check(t, LockSite, fakeSVM, pkgSrc{path: "metalsvm/internal/apps/demo", src: `
package demo
import "metalsvm/internal/svm"
func bad(h *svm.Handle) {
	h.Lock(1)
	h.Lock(1)
}
`})
	wantFindings(t, msgs, "self-deadlock")
}

func TestLockSiteCleanOnConsistentOrderAndDynamicIDs(t *testing.T) {
	msgs := check(t, LockSite, fakeSVM, pkgSrc{path: "metalsvm/internal/apps/demo", src: `
package demo
import "metalsvm/internal/svm"
func a(h *svm.Handle) {
	h.Lock(1)
	h.Lock(2)
	h.Unlock(2)
	h.Unlock(1)
	h.Barrier()
}
func b(h *svm.Handle, id int) {
	// Non-constant ids cannot be ordered statically: the dynamic
	// lock-order graph covers them at run time.
	h.Lock(id)
	h.Unlock(id)
	h.Barrier()
}
`})
	wantFindings(t, msgs)
}

// fakeHooks stands in for a simulator package defining hook types.
var fakeHooks = pkgSrc{path: "metalsvm/internal/hooks", src: `
package hooks
type MapHook func(v uint32)
type SyncHook interface{ Locked(core int) }
type plainFn func(v uint32)
`}

func TestObsHookFlagsUnguardedCalls(t *testing.T) {
	msgs := check(t, ObsHook, fakeHooks, pkgSrc{path: "metalsvm/internal/demo", src: `
package demo
import "metalsvm/internal/hooks"
type table struct {
	mapHook hooks.MapHook
	sync    hooks.SyncHook
}
func (t *table) bad(v uint32) {
	t.mapHook(v)
	t.sync.Locked(1)
}
`})
	wantFindings(t, msgs, "t.mapHook is not nil-guarded", "t.sync is not nil-guarded")
}

func TestObsHookAcceptsGuardedCalls(t *testing.T) {
	msgs := check(t, ObsHook, fakeHooks, pkgSrc{path: "metalsvm/internal/demo", src: `
package demo
import "metalsvm/internal/hooks"
type table struct {
	mapHook hooks.MapHook
	sync    hooks.SyncHook
}
func (t *table) ok(v uint32, fresh bool) {
	if t.mapHook != nil && fresh {
		t.mapHook(v)
	}
	if t.sync != nil {
		t.sync.Locked(1)
	}
	if h := t.mapHook; h != nil {
		h(v)
	}
}
`})
	wantFindings(t, msgs)
}

func TestObsHookGuardDoesNotLeakIntoElseOrAfter(t *testing.T) {
	msgs := check(t, ObsHook, fakeHooks, pkgSrc{path: "metalsvm/internal/demo", src: `
package demo
import "metalsvm/internal/hooks"
type table struct{ mapHook hooks.MapHook }
func (t *table) bad(v uint32) {
	if t.mapHook != nil {
		_ = v
	} else {
		t.mapHook(v)
	}
	if t.mapHook != nil {
		_ = v
	}
	t.mapHook(v)
}
`})
	wantFindings(t, msgs, "not nil-guarded", "not nil-guarded")
}

func TestObsHookIgnoresNonHookTypes(t *testing.T) {
	msgs := check(t, ObsHook, fakeHooks, pkgSrc{path: "metalsvm/internal/demo", src: `
package demo
func run(f func(int)) { f(1) }
`})
	wantFindings(t, msgs)
}

func TestSimDetHostParallelAnnotationMustPrecedePackageClause(t *testing.T) {
	// A directive buried in a function body does not annotate the package.
	msgs := check(t, SimDet, pkgSrc{path: "metalsvm/internal/bench", src: `
package bench
func bad() {
	//metalsvm:host-parallel
	go func() {}()
}
`})
	wantFindings(t, msgs, "go statement")
}
