package sqlmini

import "edgeauth/internal/naive"

const Width = naive.Width
