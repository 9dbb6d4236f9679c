let used x = x + 1
let unused = 0
let scaled ?(by = 1) x = by * x
let offset ?(by = 1) x = by + x
