module nlexplain/benchmark

go 1.24

require nlexplain v0.0.0

replace nlexplain => ../
