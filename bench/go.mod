// The benchmark is a module of its own so the repository's build and
// tests never depend on it; the import path sits under tieredpricing/
// so the traced run may import the internal packages it times.
module tieredpricing/bench

go 1.22

require tieredpricing v0.0.0

replace tieredpricing => ../
