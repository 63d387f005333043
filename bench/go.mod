module modab/bench

go 1.24

require modab v0.0.0

replace modab => ../
