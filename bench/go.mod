// The benchmark is its own module so it builds from this directory
// alone; the import path keeps the dcsr/ prefix so it may import the
// repository's internal packages.
module dcsr/bench

go 1.22

require dcsr v0.0.0

replace dcsr => ../
