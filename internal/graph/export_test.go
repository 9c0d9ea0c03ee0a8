package graph

// SeedSupportingSets is the naive reference, for the external tests.
var SeedSupportingSets = seedSupportingSets
