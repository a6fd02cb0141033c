package wavm

import (
	"testing"
)

// FuzzLowerVsRef is the decode → validate → lower → execute fuzzer: it
// mutates text-format modules, and whatever still assembles and validates
// runs on both engines under a small fuel budget. A panic anywhere, a
// difference in results, trap kind, globals or memory, or Steps a block or
// more apart fails; so does a validated module that will not lower, or
// that does not survive the object-file round trip. Guest code must trap,
// never panic and never reach outside its memory.
func FuzzLowerVsRef(f *testing.F) {
	for _, src := range watCorpus {
		f.Add(src, int64(3000), uint8(0))
		f.Add(src, int64(40), uint8(5))
	}
	f.Fuzz(func(t *testing.T, src string, fuel int64, first uint8) {
		mod, err := Assemble(src)
		if err != nil {
			return
		}
		// Bulk memory operations cost one step whatever their length: keep
		// the memory, and with it the work a budget can buy, small.
		if mod.MemMin > 2 {
			return
		}
		if mod.MemMax == 0 || mod.MemMax > 4 {
			mod.MemMax = 4
		}
		if Validate(mod) != nil {
			return
		}
		driveModule(t, mod, min(max(fuel, 0), 5000), int(first), 3)

		obj, err := EncodeObject(mod)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := DecodeObject(obj); err != nil {
			t.Fatalf("a validated module does not survive the object round trip: %v", err)
		}
	})
}
