// Package upload is the trusted half of the Fig 3 pipeline (§5.2): code
// generation, run once per uploaded content. Codegen validates and lowers
// a function source into an object file; Key names that content, so a
// runtime instance holds one image per key however many function names
// are uploaded with it (frt.Instance.DeployObject). faasmd serves the
// upload endpoint, PUT /f/<name>, over these two functions.
package upload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"faasm.dev/faasm/internal/fcc"
	"faasm.dev/faasm/internal/wavm"
)

// Key is an upload's content key: the hex SHA-256 of everything Codegen
// reads — its dialect, a zero byte, and the source. Uploads with one key
// share one image on a runtime instance, so the key must be
// collision-resistant: a collision would run one tenant's code under
// another's name.
func Key(lang string, src []byte) string {
	h := sha256.New()
	h.Write([]byte(dialect(lang)))
	h.Write([]byte{0})
	h.Write(src)
	return hex.EncodeToString(h.Sum(nil))
}

// dialect is what Codegen reads of lang: "fc" compiles FC, anything else
// assembles the wat-like text format.
func dialect(lang string) string {
	if lang == "fc" {
		return "fc"
	}
	return "wat"
}

// Codegen runs the trusted code-generation phase on uploaded source:
// lang "fc" compiles FC, anything else assembles the wat-like text format.
// The returned bytes are a validated object file.
func Codegen(src, lang string) ([]byte, error) {
	var mod *wavm.Module
	var err error
	if dialect(lang) == "fc" {
		mod, err = fcc.CompileAndValidate(src)
	} else {
		mod, err = wavm.AssembleAndValidate(src)
	}
	if err != nil {
		return nil, fmt.Errorf("upload: code generation failed: %w", err)
	}
	return wavm.EncodeObject(mod)
}
