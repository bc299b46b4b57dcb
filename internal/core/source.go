package core

import "embed"

// engineSources embeds the recovery engine's own source, the code every
// sgc-generated client calls: the client stub and its recovery walks,
// the descriptor tracker, the server stub, and the state machine the
// walks are computed from. The Fig. 6(c) comparison counts it once.
//
//go:embed cstub.go recovery.go tracker.go sstub.go statemachine.go
var engineSources embed.FS

// EngineSource returns the recovery engine's source files by name.
func EngineSource() map[string]string {
	out := make(map[string]string)
	entries, _ := engineSources.ReadDir(".") // embedded: cannot fail
	for _, e := range entries {
		raw, _ := engineSources.ReadFile(e.Name())
		out[e.Name()] = string(raw)
	}
	return out
}
