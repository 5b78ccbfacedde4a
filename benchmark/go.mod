module freerideg/benchmark

go 1.22

require freerideg v0.0.0

replace freerideg => ../
