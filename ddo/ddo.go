// Package ddo exposes the distributed data objects (§4.1 of the paper) as
// part of the public API: typed views over the two-tier state architecture
// that applications use instead of raw state keys. See the sgd example for
// the paper's Listing 1 expressed with these types.
package ddo

import (
	iddo "faasm.dev/faasm/internal/ddo"
)

// Vector is a dense float64 vector with local writes and explicit pushes
// (the VectorAsync of the paper's Listing 1).
type Vector = iddo.Vector

// SparseMatrix is a read-only CSC matrix with chunked column-range access.
type SparseMatrix = iddo.SparseMatrix

// SparseColumns is a pulled window of sparse columns.
type SparseColumns = iddo.SparseColumns

// SparseEntry is one stored cell of a sparse matrix.
type SparseEntry = iddo.SparseEntry

// List is an append-only distributed list.
type List = iddo.List

// Constructors and helpers, re-exported.
var (
	OpenVector       = iddo.OpenVector
	OpenSparseMatrix = iddo.OpenSparseMatrix
	SparseKeys       = iddo.SparseKeys
	BuildSparseCSC   = iddo.BuildSparseCSC
	OpenList         = iddo.OpenList
)
