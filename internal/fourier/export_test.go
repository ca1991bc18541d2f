package fourier

// ForEachVec exposes forEachVec to the external test package, which may
// import the solver packages that import this one.
var ForEachVec = forEachVec
