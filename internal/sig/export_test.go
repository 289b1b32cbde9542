package sig

import "math/big"

// KeyFromPrimes exposes keyFromPrimes to the external tests of this
// directory: a key pair that is the same on every run, which
// TestAnswerBytesMatchParentCommit needs to rebuild the signed pages its
// goldens were captured from.
func KeyFromPrimes(p, q *big.Int) *PrivateKey { return keyFromPrimes(p, q) }
