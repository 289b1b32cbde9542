package digest

const Size = 16
