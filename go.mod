module repro

// This line stays at 1.22 although internal/sim needs 1.23 (it says so with
// a //go:build go1.23 constraint): bench/go.mod is frozen at 1.22 and a
// module's go line must be >= that of every module it requires.
go 1.22
