package snapshot

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// restoreEndianness puts hostLittleEndian back when the test ends.
// Tests that set it must not run in parallel.
func restoreEndianness(t *testing.T) {
	saved := hostLittleEndian
	t.Cleanup(func() { hostLittleEndian = saved })
}

// u32Value and f64Value are the j-th elements of the encoded arrays;
// the first two floats are bit patterns a numeric round trip could
// lose.
func u32Value(j int) uint32 { return uint32(j) * 2654435761 }

func f64Value(j int) float64 {
	switch j {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Float64frombits(0x7ff8_dead_beef_0001)
	}
	return float64(j) * -1.5e-3
}

// fallbackLengths are the array lengths the fallback test encodes for
// an element size: empty, one, odd, and either side of the smallest
// array the encoder appends by reference.
func fallbackLengths(elem int) []int {
	return []int{0, 1, 7, byRefMin/elem - 1, byRefMin/elem + 1}
}

// encodeArrays writes one of each array kind per length, every call
// preceded by a lone byte so it starts at an unaligned running offset,
// and returns the concatenated payload.
func encodeArrays() []byte {
	var e enc
	for i, n := range fallbackLengths(4) {
		e.u8(uint8(i))
		u := make([]uint32, n)
		for j := range u {
			u[j] = u32Value(j)
		}
		e.u32s(u)
	}
	for i, n := range fallbackLengths(8) {
		e.u8(uint8(i))
		f := make([]float64, n)
		for j := range f {
			f[j] = f64Value(j)
		}
		e.f64s(f)
	}
	for i, n := range fallbackLengths(1) {
		e.u8(uint8(i))
		e.bytes(bytes.Repeat([]byte{byte(i + 1)}, n))
	}
	e.seal()
	return bytes.Join(e.chunks, nil)
}

// decodeArrays reads encodeArrays' payload back and reports the first
// value that differs from what was encoded.
func decodeArrays(t *testing.T, payload []byte) {
	t.Helper()
	d := &dec{buf: payload}
	for i, n := range fallbackLengths(4) {
		d.u8()
		u := d.u32s()
		if len(u) != n {
			t.Fatalf("u32s #%d: %d elements, want %d (%v)", i, len(u), n, d.err())
		}
		for j, x := range u {
			if x != u32Value(j) {
				t.Fatalf("u32s #%d[%d] = %d", i, j, x)
			}
		}
	}
	for i, n := range fallbackLengths(8) {
		d.u8()
		f := d.f64s()
		if len(f) != n {
			t.Fatalf("f64s #%d: %d elements, want %d (%v)", i, len(f), n, d.err())
		}
		for j, x := range f {
			if math.Float64bits(x) != math.Float64bits(f64Value(j)) {
				t.Fatalf("f64s #%d[%d] = %x, want %x", i, j, math.Float64bits(x), math.Float64bits(f64Value(j)))
			}
		}
	}
	for i, n := range fallbackLengths(1) {
		d.u8()
		if b := d.rawBytes(); !bytes.Equal(b, bytes.Repeat([]byte{byte(i + 1)}, n)) {
			t.Fatalf("bytes #%d: %d bytes back, want %d (%v)", i, len(b), n, d.err())
		}
	}
	if d.err() != nil || d.off != len(payload) {
		t.Fatalf("decoded %d of %d bytes: %v", d.off, len(payload), d.err())
	}
}

// TestElementwiseFallback: the element-wise encoding big-endian hosts
// use writes exactly the bytes the by-reference encoding writes, and
// either stream decodes through both decoder paths. It forces
// hostLittleEndian, so it must not run in parallel.
func TestElementwiseFallback(t *testing.T) {
	restoreEndianness(t)
	hostLittleEndian = false
	elementwise := encodeArrays()
	hostLittleEndian = true
	byRef := encodeArrays()
	if !bytes.Equal(elementwise, byRef) {
		t.Fatalf("element-wise and by-reference payloads differ: %d vs %d bytes", len(elementwise), len(byRef))
	}
	for _, little := range []bool{false, true} {
		hostLittleEndian = little
		decodeArrays(t, bytes.Clone(byRef))
	}
}

// TestElementwiseFallbackWrite: writing testdata/v1-small.snap's
// catalog (smallCatalog under default options) with the element-wise
// encoder forced reproduces the file, as the normal encoder does.
func TestElementwiseFallbackWrite(t *testing.T) {
	data, err := os.ReadFile("testdata/v1-small.snap")
	if err != nil {
		t.Fatal(err)
	}
	restoreEndianness(t)
	for _, little := range []bool{true, false} {
		hostLittleEndian = little
		a, _, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("little-endian %v: %v", little, err)
		}
		var buf bytes.Buffer
		if _, err := Write(&buf, a); err != nil {
			t.Fatalf("little-endian %v: %v", little, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("little-endian %v: rewritten snapshot differs: %d vs %d bytes", little, buf.Len(), len(data))
		}
	}
}
