module lava/bench

go 1.24

require lava v0.0.0

replace lava => ../
