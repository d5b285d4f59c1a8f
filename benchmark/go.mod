module samzasql/benchmark

go 1.22

require samzasql v0.0.0

replace samzasql => ../
