module hop/benchmark

go 1.21

require hop v0.0.0

replace hop => ../
