// The benchmark is a module of its own so that it builds from its own
// build file; the path keeps it inside the parent module's tree, which
// is what lets it import the parent's internal packages.
module github.com/smartmeter/smartbench/bench

go 1.22

require github.com/smartmeter/smartbench v0.0.0

replace github.com/smartmeter/smartbench => ../
