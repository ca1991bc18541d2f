module ptdft/bench

go 1.24

require ptdft v0.0.0

replace ptdft => ../
