package vmprog

// EncodeState exposes the canonicalizer's injective flat encoding to the
// external tests: two states are equal exactly when their encodings are.
func EncodeState(s *State) []uint64 { return encode(nil, s) }
