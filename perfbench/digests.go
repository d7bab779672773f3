package main

// defaultSeed is the calibrated world seed of the paper presets; runs at
// this seed are also checked against the digests below.
const defaultSeed = 2018

// keptDigests are SHA-256 digests of each workload's output at
// defaultSeed, taken from the command-line tools:
//
//	paper-campaign:  censorscan -campaign -workers 2
//	loaded-campaign: censorscan -scenario paper-2018-loaded -measure dns,http -domains 4
//	observatory:     censorscan -measure dns,http   (the pushed JSONL body)
//	paper-tables:    censorscan -quick              (standard output)
//
// The campaign output is byte-identical for every worker count, so one
// digest covers all of them. A change here is a change of the program's
// answers, and has to be deliberate.
var keptDigests = map[string]string{
	"paper-campaign":  "ecaa3b2f9b0d27a521367717e41605450392353650f35ec23acd58d372814b48",
	"loaded-campaign": "2cfc6b85bc7bfd04b827c9bbc48dd36f0ca457b0b08a4a4d31edb6ce1abd338d",
	"observatory":     "f0cacc9bbb9e8d149c0c517825f8fdcede48e9394594b08f41eec50043aefc94",
	"paper-tables":    "fb9392dde7332f40c84df25af3178c496cbca4baf88b7f887ea302507ee1dd50",
}
