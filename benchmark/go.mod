module stagedb/benchmark

go 1.24

require stagedb v0.0.0

replace stagedb => ../
