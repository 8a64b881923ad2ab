package core

// MaxExecBatch exposes the work-stealing scheduler's activation bound to
// the external tests in this directory.
const MaxExecBatch = maxExecBatch
