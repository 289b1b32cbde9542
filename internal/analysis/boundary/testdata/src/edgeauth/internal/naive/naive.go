package naive

import "edgeauth/internal/digest"

const Width = digest.Size
