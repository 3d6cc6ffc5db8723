package hirata

// CorpusString exports corpusString to the external test package.
var CorpusString = corpusString
