// The benchmark is a module of its own so it carries its own build file;
// its import path sits under repro/, which lets it import repro/internal/...
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
