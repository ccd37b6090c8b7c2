package nearestlink

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// fuzzHeader is the byte count decodeFuzz reads before the values: M, N
// and the dimension count.
const fuzzHeader = 3

// decodeFuzz turns fuzz bytes into a problem of at most 8 security rows and
// 8 wild rows of at most 6 dimensions: M, N and d from the first three
// bytes, then every value from the next 8 bytes' raw float64 bits (little
// endian), zero once the bytes run out.
func decodeFuzz(data []byte) (sec, wild [][]float64) {
	var head [fuzzHeader]byte
	copy(head[:], data)
	data = data[min(len(data), fuzzHeader):]
	m, n, d := int(head[0]%9), int(head[1]%9), int(head[2]%7)
	rows := func(k int) [][]float64 {
		out := make([][]float64, k)
		for i := range out {
			out[i] = make([]float64, d)
			for j := range out[i] {
				var bits [8]byte
				data = data[copy(bits[:], data):]
				out[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
			}
		}
		return out
	}
	sec = rows(m)
	wild = rows(n)
	return sec, wild
}

// encodeFuzz is decodeFuzz's inverse for the seed corpus.
func encodeFuzz(sec, wild [][]float64) []byte {
	d := 0
	if len(sec) > 0 {
		d = len(sec[0])
	}
	out := []byte{byte(len(sec)), byte(len(wild)), byte(d)}
	for _, set := range [][][]float64{sec, wild} {
		for _, row := range set {
			for _, v := range row {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// FuzzSearch holds Search to its normalized-input contract on arbitrary
// float64 bits: it never panics, and it either returns one of the package's
// canonical errors (as ReferenceSearch does for the same input) or links
// bit-identical to ReferenceSearch's at workers 1 and 2. Weighted, every
// |value| is at most 1, so exactly min(M, N) links come back and every
// distance is at most 2·sqrt(d).
func FuzzSearch(f *testing.F) {
	f.Add(encodeFuzz([][]float64{{5e-324, 1}, {0, 2}}, [][]float64{{0, 1}, {5e-324, 2}, {0, 3}}))
	f.Add(encodeFuzz([][]float64{{0, 0}, {1, 1}, {1, 1}}, [][]float64{{0, 0}, {1, 1}, {0.5, 0.5}, {1, 1}}))
	f.Add(encodeFuzz([][]float64{{1e300, -1e300, 3}}, [][]float64{{-1e300, 1e300, 3}, {0, 0, 0}}))
	f.Add(encodeFuzz([][]float64{{1, 2, 3, 4, 5, 6}}, nil))
	f.Add([]byte{})
	canonical := []error{ErrNoSecurityPatches, ErrNoWildPatches, ErrDimensionMismatch, ErrNonFinite}
	f.Fuzz(func(t *testing.T, data []byte) {
		sec, wild := decodeFuzz(data)
		want, refErr := ReferenceSearch(sec, wild, nil)
		for _, workers := range []int{1, 2} {
			got, err := Search(bg, sec, wild, &Options{Workers: workers})
			if err != nil || refErr != nil {
				matched := false
				for _, c := range canonical {
					if errors.Is(err, c) {
						matched = true
						if !errors.Is(refErr, c) {
							t.Fatalf("workers %d: Search err %v, ReferenceSearch err %v", workers, err, refErr)
						}
					}
				}
				if !matched {
					t.Fatalf("workers %d: Search err %v (ReferenceSearch %v), want a canonical error", workers, err, refErr)
				}
				continue
			}
			if len(got) != min(len(sec), len(wild)) {
				t.Fatalf("workers %d: %d links, want min(%d, %d)", workers, len(got), len(sec), len(wild))
			}
			limit := 2 * math.Sqrt(float64(len(sec[0]))) * (1 + 1e-12)
			for k := range got {
				if got[k].Distance > limit {
					t.Fatalf("workers %d: link %d = %+v, above 2·sqrt(d) = %v", workers, k, got[k], limit)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("workers %d: %d links, reference %d", workers, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("workers %d: link %d = %+v, reference %+v", workers, k, got[k], want[k])
				}
			}
		}
	})
}
