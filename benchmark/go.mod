module anytime/benchmark

go 1.22

require anytime v0.0.0

replace anytime => ../
