package hirata

// CorpusString exports corpusString to the external test package.
var CorpusString = corpusString

// RunOptionCases exports the run-option matrix to the external test
// package.
var RunOptionCases = runOptionCases
