package serve

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"math"
	"math/big"
	"math/rand/v2"
	"os"
	"strconv"
	"testing"
)

var updatePow10 = flag.Bool("update", false, "rewrite atof_pow10.go from math/big")

// pow10Mantissa is 10^e's mantissa as a 128-bit integer in [2^127, 2^128),
// rounded down: 10^e shifted for e >= 0, 2^k / 10^-e for e < 0.
func pow10Mantissa(e int) *big.Int {
	ten := big.NewInt(10)
	if e >= 0 {
		x := new(big.Int).Exp(ten, big.NewInt(int64(e)), nil)
		if n := x.BitLen(); n <= 128 {
			return x.Lsh(x, uint(128-n))
		}
		return x.Rsh(x, uint(x.BitLen()-128))
	}
	d := new(big.Int).Exp(ten, big.NewInt(int64(-e)), nil)
	num := new(big.Int).Lsh(big.NewInt(1), uint(127+d.BitLen()))
	return num.Quo(num, d)
}

// TestPow10Table recomputes every pow10Tab entry with math/big and compares
// it with the committed table. -update rewrites atof_pow10.go instead.
func TestPow10Table(t *testing.T) {
	lo64 := new(big.Int).SetUint64(math.MaxUint64)
	entry := func(e int) [2]uint64 {
		m := pow10Mantissa(e)
		if m.BitLen() != 128 {
			t.Fatalf("1e%d: mantissa has %d bits, want 128", e, m.BitLen())
		}
		lo := new(big.Int).And(m, lo64).Uint64()
		return [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), lo}
	}
	if *updatePow10 {
		var b bytes.Buffer
		fmt.Fprintf(&b, `// Code generated by "go test -run TestPow10Table -update"; DO NOT EDIT.

package serve

// pow10Tab[e-pow10Min] is the 128-bit mantissa of 10^e for e in
// [%d, %d], normalised to its top bit and rounded down, as {high word,
// low word}. It is static data: building it at start-up with math/big
// would cost every process the time and the heap.
//
// To change the range, set pow10Min and pow10Max in atof.go, replace this
// file with the stub
//
//	var pow10Tab = [pow10Max - pow10Min + 1][2]uint64{}
//
// (the old literal no longer compiles at a new size), then rerun the
// command above.
var pow10Tab = [pow10Max - pow10Min + 1][2]uint64{
`, pow10Min, pow10Max)
		for e := pow10Min; e <= pow10Max; e++ {
			w := entry(e)
			fmt.Fprintf(&b, "\t{0x%016x, 0x%016x}, // 1e%d\n", w[0], w[1], e)
		}
		b.WriteString("}\n")
		src, err := format.Source(b.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("atof_pow10.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for e := pow10Min; e <= pow10Max; e++ {
		if got, want := pow10Tab[e-pow10Min], entry(e); got != want {
			t.Errorf("pow10Tab[1e%d] = %#x, want %#x", e, got, want)
		}
	}
}

// refParseFloat is the decoder's strconv path: the strict JSON grammar
// scan, then strconv.ParseFloat on the scanned text.
func refParseFloat(b []byte) (float64, int, bool) {
	d := &decoder{data: b}
	num := d.number()
	if d.err != nil {
		return 0, 0, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, len(num), err == nil
}

// checkParseFloat fails t unless atof and refParseFloat agree on b: both
// reject, or both accept with the same length and the same Float64bits.
func checkParseFloat(t *testing.T, b []byte) {
	t.Helper()
	f, n, ok := atof(b)
	wf, wn, wok := refParseFloat(b)
	switch {
	case ok != wok:
		t.Fatalf("%q: atof ok=%v, strconv ok=%v", b, ok, wok)
	case ok && (n != wn || math.Float64bits(f) != math.Float64bits(wf)):
		t.Fatalf("%q: atof %v (%#x) over %d bytes, strconv %v (%#x) over %d",
			b, f, math.Float64bits(f), n, wf, math.Float64bits(wf), wn)
	}
}

// hardFloats are the inputs where a fast float parser most often breaks:
// the extremes of float64, halfway cases, long mantissas that truncate,
// leading fraction zeros, exponents outside the table and bad grammar.
var hardFloats = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "0.000", "0e400", "0.0000000000000000000000000000001",
	"1", "-1", "9", "10", "1e23", "8.41e21", "1e22", "1e-22", "123456789e-22", "9007199254740993",
	"9007199254740992", "9007199254740991", "18014398509481985", "4.9406564584124654e-324",
	"4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
	"2.2250738585072012e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
	"1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309", "1e400", "-1e400",
	"1e-400", "-1e-400", "1e-348", "1e-349", "1e347", "0.1", "0.2", "0.3", "0.0012345678901234567",
	"0.000000000000000000000000000000000000001", "0.00000000000000000000000000000000000000123",
	"1234567890123456789", "12345678901234567890", "1234567890123456789012345",
	"0.1234567890123456789", "0.12345678901234567890", "0.1234567890123456789012345",
	"9999999999999999999", "99999999999999999999", "9999999999999999999999999",
	"18446744073709551615", "18446744073709551616", "1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124", "1.00000000000000011102230246251565404236316680908203126",
	"0.1000000000000000055511151231257827021181583404541015625", "7.3177701707893310e+15",
	"1E+2", "1e-2", "1E2", "12345678.12345678", "123456781234567812345678",
	"1e99999999999", "1e-99999999999", "1.5e", "1e+", "1e-", "-", "+1", ".5", "1.", "01", "-01",
	"1.e5", "1x", "1.5 ", "00", "", "e5", "-e5", "0x10", "inf", "NaN", "1_0",
}

// tableEdgeFloats renders numbers whose scanned mantissa meets pow10Tab's
// edges — decimal exponent pow10Min-1, pow10Min, pow10Max and pow10Max+1 —
// with 17, 19 and 23 significant digits (the last truncated to 19 by the
// scan), written as integers and with a decimal point, of either sign.
func tableEdgeFloats() []string {
	var out []string
	for _, e := range []int{pow10Min - 1, pow10Min, pow10Max, pow10Max + 1} {
		for _, digits := range []string{"12345678901234567", "9876543210987654321", "31415926535897932384626"} {
			// The scan keeps maxMantDigits digits and moves the exponent
			// past the rest.
			dropped := max(len(digits)-maxMantDigits, 0)
			out = append(out,
				fmt.Sprintf("%se%d", digits, e-dropped),
				fmt.Sprintf("-%s.%se%+d", digits[:1], digits[1:], e-dropped+len(digits)-1))
		}
	}
	return out
}

// TestParseFloatTableEdges checks that pow10Tab's edges are where
// Eisel–Lemire hands over to strconv; FuzzParseFloat's tableEdgeFloats
// seeds hold atof to strconv on either side of them.
func TestParseFloatTableEdges(t *testing.T) {
	for e, inside := range map[int]bool{pow10Min - 1: false, pow10Min: true, pow10Max: true, pow10Max + 1: false} {
		if _, ok := eiselLemire(12345678901234567, e, false); ok != inside {
			t.Errorf("eiselLemire at 1e%d: ok=%v, want %v", e, ok, inside)
		}
	}
}

func FuzzParseFloat(f *testing.F) {
	for _, s := range hardFloats {
		f.Add([]byte(s))
	}
	for _, s := range tableEdgeFloats() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) { checkParseFloat(t, b) })
}

// TestParseFloatMatchesStrconv renders seeded float64 bit patterns the ways
// a client may send them (shortest, 17–25 significant digits, fixed with
// 3–27 fraction digits) and holds atof to strconv on every rendering. One
// pattern in eight draws from every finite float64; the rest stay within
// ±2^100, where the fixed renderings carry significant digits and
// strconv renders them without its slow multiprecision path.
func TestParseFloatMatchesStrconv(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 20_000
	}
	r := rand.New(rand.NewPCG(23, 2101))
	for i := 0; i < n; i++ {
		fb := r.Uint64()
		if i%8 != 0 {
			fb = fb&^(0x7ff<<52) | uint64(1023-100+r.IntN(201))<<52
		}
		f := math.Float64frombits(fb)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		for _, s := range []string{
			strconv.FormatFloat(f, 'g', -1, 64),
			strconv.FormatFloat(f, 'e', 16+i%9, 64),
			strconv.FormatFloat(f, 'f', 3+i%25, 64),
		} {
			got, k, ok := atof([]byte(s))
			want, err := strconv.ParseFloat(s, 64)
			if !ok || err != nil || k != len(s) || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: atof %v (%#x, %d bytes, ok %v), strconv %v (%#x, %v)",
					s, got, math.Float64bits(got), k, ok, want, math.Float64bits(want), err)
			}
		}
	}
}

// TestDecodeFloatErrors pins the error texts of bad float fields: a number
// atof rejects decodes through the strconv path, which words the error.
func TestDecodeFloatErrors(t *testing.T) {
	for body, want := range map[string]string{
		`{"load":{"i":1e400}}`:              "number 1e400 out of float64 range at offset 18",
		`{"load":{"i":-}}`:                  "invalid number at offset 14",
		`{"load":{"i":1.}}`:                 "invalid number at offset 15",
		`{"load":{"i":1e+}}`:                "invalid number at offset 16",
		`{"load":{"i":01}}`:                 "expected ',' or '}' at offset 14",
		`{"load":{"i":"1"}}`:                "cannot decode string into float64 at offset 13",
		`{"load":{"samples":[1,2,-1e999]}}`: "number -1e999 out of float64 range at offset 30",
		`{"load":{"samples":[0.5,1.e3]}}`:   "invalid number at offset 26",
	} {
		var req VSafeRequest
		if err := decodeString(body, &req); err == nil || err.Error() != "bad request: decode: "+want {
			t.Errorf("%s: error %v, want %q", body, err, "bad request: decode: "+want)
		}
	}
}
