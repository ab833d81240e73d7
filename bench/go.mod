module pacman/bench

go 1.24

require pacman v0.0.0

replace pacman => ../
