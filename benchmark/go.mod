module commlat/benchmark

go 1.22

require commlat v0.0.0

replace commlat => ../
