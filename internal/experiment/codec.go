package experiment

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// resultVersion opens every binary RunResult. It must never be '{':
// that byte is how sweep.Memo tells a value an earlier daemon stored as
// JSON from this form.
const resultVersion = 1

// series lists the per-packet sample slices in stored order. They are
// over 99 % of a result's bytes, so they travel as raw words; the rest
// stays JSON (DESIGN.md §21).
func (r *RunResult) series() [3]*[]float64 {
	return [3]*[]float64{&r.WiFiRTTms, &r.CellRTTms, &r.OFOms}
}

// MarshalBinary is the result store's value format: the version byte,
// then four sections, each a little-endian uint32 count and that many
// items — the JSON of r with its three series nil (items are bytes),
// then each series (items are little-endian IEEE-754 words).
func (r *RunResult) MarshalBinary() ([]byte, error) {
	scalars := *r
	size := 1 + 4
	for _, xs := range scalars.series() {
		size += 4 + 8*len(*xs)
		*xs = nil
	}
	js, err := json.Marshal(&scalars)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, size+len(js))
	b = append(b, resultVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(js)))
	b = append(b, js...)
	for _, xs := range r.series() {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(*xs)))
		for _, x := range *xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b, nil
}

// UnmarshalBinary reads what MarshalBinary wrote and nothing else: a
// count that runs past the input is rejected before anything is
// allocated for it, and the value must end where its last series does.
// An empty series decodes as nil, which is what Testbed.Run leaves.
func (r *RunResult) UnmarshalBinary(b []byte) error {
	if len(b) == 0 || b[0] != resultVersion {
		return errors.New("experiment: result: not a version-1 binary value")
	}
	js, b, err := section(b[1:], 1)
	if err != nil {
		return err
	}
	var out RunResult
	if err := json.Unmarshal(js, &out); err != nil {
		return fmt.Errorf("experiment: result: scalars: %w", err)
	}
	for _, xs := range out.series() {
		var raw []byte
		if raw, b, err = section(b, 8); err != nil {
			return err
		}
		*xs = nil
		if len(raw) > 0 {
			*xs = make([]float64, len(raw)/8)
		}
		for i := range *xs {
			(*xs)[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("experiment: result: %d trailing bytes", len(b))
	}
	*r = out
	return nil
}

// section splits b into the counted section at its head (count items
// of width bytes each) and the rest.
func section(b []byte, width int) (sec, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, errors.New("experiment: result: truncated")
	}
	n := uint64(binary.LittleEndian.Uint32(b)) * uint64(width)
	if b = b[4:]; n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("experiment: result: section of %d bytes, %d left", n, len(b))
	}
	return b[:n], b[n:], nil
}
