package tamper

import "edgeauth/internal/naive"

const Width = naive.Width
