// Package smartbench is a from-scratch Go reproduction of
// "Benchmarking Smart Meter Data Analytics" (Liu, Golab, Golab, Ilyas;
// EDBT 2015): the four-task smart meter analytics benchmark, the
// realistic data generator, and analogues of the five evaluated
// platforms (Matlab, PostgreSQL/MADLib, the "System C" main-memory
// column store, Spark and Hive) built on pure-Go substrates — a slotted
// heap/B+tree row store, a binary columnar store, and a simulated
// cluster with an HDFS-like file system and one cluster engine run under
// a Spark and a Hive profile.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured record of every
// regenerated table and figure. cmd/smbench runs the full experiment
// suite; bench/ is the repository's benchmark.
package smartbench
