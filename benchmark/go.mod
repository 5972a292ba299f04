module pisd/benchmark

go 1.24

require pisd v0.0.0

replace pisd => ../
