module crdtsmr/benchmark

go 1.24

require crdtsmr v0.0.0

replace crdtsmr => ../
