package sparse

// FromPairsOn lets the differential tests run FromPairs' build at a chosen
// worker count.
var FromPairsOn = fromPairsOn
