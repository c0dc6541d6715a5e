// The benchmark is a module of its own so that it builds from the files
// under bench/ plus the parent module, and so that `go build ./...` and
// `go test ./...` at the repository root do not depend on it. The path
// prefix repro/ is what lets it import repro/internal/...
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
