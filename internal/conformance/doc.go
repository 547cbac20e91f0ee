// Package conformance is the cross-engine differential test layer: every
// state-space engine of Section 2.2 — explicit enumeration, BDD-based
// symbolic traversal (with and without garbage collection, dynamic
// reordering and parallel image computation), and stubborn-set
// partial-order reduction — is checked against every other on a shared
// corpus of testdata specifications and generated families.
//
// The agreed-on observables are the reachable state count, the set of
// deadlocked markings (which stubborn sets preserve exactly), and, for STG
// models, the Complete State Coding verdict. A golden file pins what the
// synthesis flow decides on the same corpus: the ranked CSC solutions and
// the equations in every architecture. The suite is table-driven and runs
// under plain `go test ./...`; scripts/verify.sh additionally runs the
// cross-engine part under the race detector.
package conformance
