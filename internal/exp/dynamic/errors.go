// Package dynamic makes the experiment registry writable at runtime: a
// declarative JSON Definition names a composition of the algorithm
// legs of exp.Legs, the table the builtin cells run (permutation,
// compaction, multicompact, sorting, hashing, load balancing), over a
// size/seed grid, is canonicalized and content-hashed into a stable id
// ("x-" + 12 hex digits of the canonical bytes' SHA-256), and compiles
// into a spec.Experiment that runs through the existing spec.Runner and
// core.SessionPool unchanged.
// Stored definitions are therefore immediately runnable, sweepable,
// profileable, and cacheable by content: two byte-different documents
// that canonicalize identically share one id and one cache entry.
//
// Validation is strict and message-exact, xregistry style: unknown
// fields are refused at decode time, and every semantic error carries a
// machine-readable code plus the JSON path of the offending field, so
// the daemon's 400 bodies are stable enough to golden-test.
package dynamic

import "fmt"

// Error codes. The daemon maps them onto its structured error envelope;
// the CLI prints them with their paths. They are part of the wire
// contract, so tests pin them.
const (
	// CodeInvalidBody marks documents that fail JSON decoding outright:
	// syntax errors, unknown fields, trailing data.
	CodeInvalidBody = "invalid_body"
	// CodeInvalidField marks semantic validation failures of one field.
	CodeInvalidField = "invalid_field"
	// CodeNameConflict marks a definition whose name collides with a
	// builtin experiment or with a stored definition of different
	// content.
	CodeNameConflict = "name_conflict"
	// CodeStoreFull marks a store at capacity refusing a new
	// definition.
	CodeStoreFull = "store_full"
)

// Error is a definition error: a machine-readable code, a stable
// human-readable message, and — for field-level failures — the JSON
// path of the offending field (e.g. "phases[2].algorithm").
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Path    string `json:"path,omitempty"`
}

func (e *Error) Error() string {
	if e.Path != "" {
		return e.Path + ": " + e.Message
	}
	return e.Message
}

// fieldErr builds a CodeInvalidField error at the given path.
func fieldErr(path, format string, args ...any) *Error {
	return &Error{Code: CodeInvalidField, Message: fmt.Sprintf(format, args...), Path: path}
}
