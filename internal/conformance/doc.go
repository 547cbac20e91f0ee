// Package conformance is the cross-engine differential test layer: every
// state-space engine of Section 2.2 — explicit enumeration, BDD-based
// symbolic traversal (with and without garbage collection and dynamic
// reordering), and stubborn-set
// partial-order reduction — is checked against every other on a shared
// corpus of testdata specifications and generated families.
//
// The agreed-on observables are the reachable state count, the set of
// deadlocked markings (which stubborn sets preserve exactly), and, for STG
// models, the Complete State Coding verdict. Two golden files pin the
// rest on the same corpus: what the synthesis flow decides (the ranked CSC
// solutions and the equations in every architecture) and the BDD kernel's
// deterministic counters during symbolic traversal. The suite is table-driven and runs
// under plain `go test ./...`; scripts/verify.sh additionally runs the
// cross-engine part under the race detector.
package conformance
