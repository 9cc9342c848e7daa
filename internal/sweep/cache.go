package sweep

import (
	"crypto/sha256"
	"encoding"
	"encoding/json"
	"fmt"
)

// Key builds the content address for one run: the SHA-256 of the
// canonical JSON encoding of desc, paired with the run seed as
// "<hex>:<seed>".
//
// Canonicalization marshals desc, decodes it into generic values, and
// re-marshals: every JSON object becomes a map whose keys Go's
// encoder emits sorted, so two descriptors that differ only in field
// declaration order (or map insertion order, or whether they were a
// struct or a map to begin with) share a key — across processes,
// since nothing here depends on runtime state.
//
// Soundness: every run in this repo is a pure function of (config,
// seed) — no wall clock, no scheduling, no global state reaches a
// result row. So two submissions whose canonical descriptors and
// seeds match would recompute byte-identical rows, and serving the
// cached row instead is indistinguishable from re-running. Distinct
// seeds can never collide because the seed is appended outside the
// hash. Execution policy that cannot change the row (worker count,
// wall-clock deadlines) must stay out of desc.
//
// One caveat of the JSON route: numbers pass through float64, so
// integer descriptor fields above 2^53 would lose precision. Nothing
// in a campaign spec is near that (sizes, durations in nanoseconds,
// counts), and seeds — the one full-range 64-bit input — bypass the
// hash entirely.
func Key(desc any, seed int64) (string, error) {
	raw, err := json.Marshal(desc)
	if err != nil {
		return "", fmt.Errorf("sweep: cache key: %w", err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("sweep: cache key: %w", err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("sweep: cache key: %w", err)
	}
	return fmt.Sprintf("%x:%d", sha256.Sum256(canon), seed), nil
}

// Memo is the one cache protocol every runner's Intercept hook is
// wired to: answer run() from st when key already holds a decodable R,
// otherwise execute it and store the row — once encoded on a miss,
// once decoded on a hit, read through GetRef (no copy).
//
// A row travels through its own encoding.BinaryMarshaler and
// BinaryUnmarshaler when *R has both, and through JSON otherwise: one
// stored form per row type.
//
// A value that does not decode is a miss and is overwritten (so is
// the JSON an earlier daemon stored for a type that has since gained a
// binary form). A row keep rejects (a failed run: a wall-clock fact,
// not a function of the key) is returned but never stored. An empty
// key — the caller's Key call failed — means "don't cache": run always
// executes.
func Memo[R any](st *Store, key string, keep func(R) bool, run func() R) (res R, hit bool) {
	if key == "" {
		return run(), false
	}
	if b, ok := st.GetRef(key); ok && decodeRow(b, &res) == nil {
		return res, true
	}
	res = run()
	if keep(res) {
		if b, err := encodeRow(&res); err == nil {
			st.Put(key, b)
		}
	}
	return res, false
}

// binaryRow is a row type that brings its own stored form.
type binaryRow interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

func encodeRow(row any) ([]byte, error) {
	if r, ok := row.(binaryRow); ok {
		return r.MarshalBinary()
	}
	return json.Marshal(row)
}

func decodeRow(b []byte, row any) error {
	if r, ok := row.(binaryRow); ok {
		return r.UnmarshalBinary(b)
	}
	return json.Unmarshal(b, row)
}
