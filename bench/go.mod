module liberty/bench

go 1.22

require liberty v0.0.0

replace liberty => ../
