package bench

import "metalsvm/internal/bench/runner"

// runTasks executes independent closures across the host pool (GOMAXPROCS
// wide). Every simulation is a pure function of its configuration and each
// closure must write its result into storage owned by its own index, so the
// numbers a sweep returns are bit-identical at any width (the equivalence
// tests assert this).
func runTasks(tasks []func()) {
	runner.Run(len(tasks), func(i int) { tasks[i]() })
}
