// Package repro is a from-scratch Go reproduction of "Message-Passing
// Concurrency for Scalable, Stateful, Reconfigurable Middleware" (Arad,
// Dowling, Haridi; MIDDLEWARE 2012) — the Kompics component model — and
// its CATS key-value store case study.
//
// See README.md for the overview, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results. The
// library lives under internal/, runnable examples under examples/, and
// executables under cmd/. The catssim paper entries regenerate the paper's
// evaluation (go run ./cmd/catssim run paper > EXPERIMENTS.md); the
// benchmarks in bench_test.go are framework microbenchmarks.
package repro
