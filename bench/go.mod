module faasm.dev/faasm/bench

go 1.22

require faasm.dev/faasm v0.0.0

replace faasm.dev/faasm => ../
