// Package repro is a Go reproduction of "The Bootstrapping Service"
// (Jelasity, Montresor, Babaoglu — Proc. 26th ICDCS Workshops, 2006,
// doi:10.1109/ICDCSW.2006.105): a gossip protocol that jump-starts
// prefix-table routing substrates (Pastry, Kademlia, Tapestry, Bamboo)
// from scratch on top of a peer sampling service.
//
// The implementation lives under internal/ (see DESIGN.md for the module
// inventory), runnable usage in the packages' Example functions and the
// CLIs under cmd/, and the figure regeneration harness in bench_test.go
// and cmd/bootsim.
package repro
