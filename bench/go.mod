module drugtree/bench

go 1.22

require drugtree v0.0.0

replace drugtree => ../
