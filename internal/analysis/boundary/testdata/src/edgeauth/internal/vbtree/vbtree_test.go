package vbtree

// Test files may tie serving code to anything.
import "edgeauth/internal/naive"

var _ = naive.Width
