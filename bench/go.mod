module himap/bench

go 1.22

require himap v0.0.0

replace himap => ../
