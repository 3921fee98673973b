// Package ecc implements the SECDED (single-error-correct, double-error-
// detect) Hamming code that GPUs apply to cache and DRAM words. The paper
// assumes SECDED protection is present and focuses on the multi-bit faults
// that escape it. The simulator does not run this codec: every memory is
// SECDED-protected, package mem's one ECC model, and the memory and fault
// models decide a fault's ECC fate from its bit count. This package is the
// reference those rules are tested against,
// pattern by pattern over a word's data bits (model_test.go), so the
// places where the models depart from a real (39,32) code are measured
// rather than merely asserted.
//
// Layout: a 32-bit data word is extended with six Hamming parity bits
// (positions 1,2,4,8,16,32 of the 38-bit Hamming codeword) plus one overall
// parity bit, for 39 bits total. The classification rules are the classic
// ones:
//
//   - syndrome 0, overall parity even  → no error
//   - syndrome ≠ 0, overall parity odd → single-bit error, correctable
//   - syndrome ≠ 0, overall parity even → double-bit error, detected
//   - syndrome 0, overall parity odd   → error in the overall parity bit
//
// Triple and higher faults alias: they may masquerade as single-bit errors
// (and be miscorrected) or even as clean words. Over the data bits of one
// word, 2,720 of the 4,960 3-bit patterns decode to a word other than the
// corrupted one and none is detected; 35,280 of the 35,960 4-bit patterns
// are detected.
package ecc

import (
	"fmt"
	"math/bits"
)

// Codeword bit budget: 32 data bits laid out in Hamming positions 1..38
// (skipping power-of-two parity positions), plus the overall parity in our
// bit 38 of the packed representation.
const (
	// DataBits is the protected word width.
	DataBits = 32
	// CheckBits is the number of Hamming parity bits.
	CheckBits = 6
	// TotalBits is the full codeword width including overall parity.
	TotalBits = DataBits + CheckBits + 1 // 39
)

// Codeword is a packed 39-bit SECDED codeword. Bits 0..37 hold the Hamming
// codeword (position i+1 in Hamming numbering); bit 38 is overall parity.
type Codeword uint64

// Outcome classifies the result of decoding a codeword.
type Outcome int

// Decode outcomes. They start at 1 so the zero value is invalid and cannot
// be mistaken for a real classification.
const (
	// OK means no error was present.
	OK Outcome = iota + 1
	// CorrectedSingle means exactly one bit was flipped and repaired.
	CorrectedSingle
	// DetectedDouble means a two-bit error was detected (uncorrectable).
	DetectedDouble
	// Miscorrect is never returned by Decode itself; it is the label tests
	// and the fault model use for ≥3-bit faults that alias to a valid
	// single-error syndrome and are "corrected" into the wrong word.
	Miscorrect
)

// String renders the outcome for logs.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case CorrectedSingle:
		return "corrected-single"
	case DetectedDouble:
		return "detected-double"
	case Miscorrect:
		return "miscorrect"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// dataPositions[i] is the Hamming position (1-based) of data bit i: the
// non-power-of-two positions 3,5,6,7,9,...,38 in order.
var dataPositions = buildDataPositions()

func buildDataPositions() [DataBits]int {
	var pos [DataBits]int
	i := 0
	for p := 1; i < DataBits; p++ {
		if p&(p-1) == 0 { // power of two → parity position
			continue
		}
		pos[i] = p
		i++
	}
	return pos
}

// Encode produces the SECDED codeword for a 32-bit data word.
func Encode(data uint32) Codeword {
	var cw uint64
	// Place data bits at their Hamming positions.
	for i := 0; i < DataBits; i++ {
		if data&(1<<uint(i)) != 0 {
			cw |= 1 << uint(dataPositions[i]-1)
		}
	}
	// Compute the six Hamming parity bits. Parity bit at position 2^k
	// covers all positions whose k-th bit is set.
	for k := 0; k < CheckBits; k++ {
		p := 1 << uint(k)
		parity := 0
		for pos := 1; pos <= DataBits+CheckBits; pos++ {
			if pos&p != 0 && cw&(1<<uint(pos-1)) != 0 {
				parity ^= 1
			}
		}
		if parity != 0 {
			cw |= 1 << uint(p-1)
		}
	}
	// Overall parity over the 38 Hamming bits.
	if bits.OnesCount64(cw&((1<<38)-1))%2 != 0 {
		cw |= 1 << 38
	}
	return Codeword(cw)
}

// syndrome returns the Hamming syndrome (0 if parity checks pass) for the
// low 38 bits of the codeword.
func syndrome(cw uint64) int {
	s := 0
	for k := 0; k < CheckBits; k++ {
		p := 1 << uint(k)
		parity := 0
		for pos := 1; pos <= DataBits+CheckBits; pos++ {
			if pos&p != 0 && cw&(1<<uint(pos-1)) != 0 {
				parity ^= 1
			}
		}
		if parity != 0 {
			s |= p
		}
	}
	return s
}

// extractData pulls the 32 data bits out of a (possibly corrected) codeword.
func extractData(cw uint64) uint32 {
	var data uint32
	for i := 0; i < DataBits; i++ {
		if cw&(1<<uint(dataPositions[i]-1)) != 0 {
			data |= 1 << uint(i)
		}
	}
	return data
}

// Decode classifies and, when possible, repairs a received codeword. It
// returns the recovered data word and the classification. For
// DetectedDouble the returned data is the best-effort extraction and must
// not be trusted.
//
// Faults of three or more bits are beyond the code's guarantees: Decode will
// return OK or CorrectedSingle with wrong data (silent escape /
// miscorrection). Quantifying that escape is the job of the fault model, not
// this function.
func Decode(received Codeword) (uint32, Outcome) {
	cw := uint64(received)
	s := syndrome(cw)
	overall := bits.OnesCount64(cw&((1<<39)-1)) % 2

	switch {
	case s == 0 && overall == 0:
		return extractData(cw), OK
	case s != 0 && overall == 1:
		// Single-bit error at Hamming position s.
		if s >= 1 && s <= DataBits+CheckBits {
			cw ^= 1 << uint(s-1)
		}
		return extractData(cw), CorrectedSingle
	case s == 0 && overall == 1:
		// The overall parity bit itself flipped; data is intact.
		return extractData(cw), CorrectedSingle
	default: // s != 0 && overall == 0
		return extractData(cw), DetectedDouble
	}
}

// FlipBits returns the codeword with the given bit positions (0..38) flipped.
// It is a test and fault-model helper.
func FlipBits(cw Codeword, positions ...int) (Codeword, error) {
	out := uint64(cw)
	for _, p := range positions {
		if p < 0 || p >= TotalBits {
			return 0, fmt.Errorf("ecc: flip position %d out of range [0,%d)", p, TotalBits)
		}
		out ^= 1 << uint(p)
	}
	return Codeword(out), nil
}
