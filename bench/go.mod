// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` never compiles it and a later PR
// cannot change it by accident. The replace directive points at the
// program under test; the repro/ path prefix is what lets this module
// import repro/internal/{server,workload}.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
