module dlpt/benchmark

go 1.24

require dlpt v0.0.0

replace dlpt => ../
