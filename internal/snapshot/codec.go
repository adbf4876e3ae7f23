package snapshot

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores multi-byte
// integers little-endian — the precondition for writing []uint32 and
// []float64 slices from their own memory and reconstructing them
// directly over the snapshot buffer, instead of encoding and decoding
// element by element.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// enc accumulates the little-endian wire encoding of one section
// payload as an ordered list of chunks. Scalars and short arrays are
// appended to an open run. A byte blob of at least byRefMin bytes, and
// on little-endian hosts a numeric array of that size, becomes a chunk
// of its own that aliases the caller's live slice, so writing a
// catalog's bulk tables copies nothing until the bytes reach the
// destination writer. The aliased slices must stay unchanged until the
// container is written.
//
// Array payloads are 8-byte aligned relative to the payload start;
// since the container places every payload at an 8-byte-aligned file
// offset, the arrays land aligned in the loaded buffer and the decoder
// can alias them zero-copy.
type enc struct {
	chunks [][]byte // sealed chunks, in payload order
	sealed int      // total length of chunks
	buf    []byte   // the open run
}

// byRefMin is the smallest array the encoder appends by reference
// rather than copying into the open run: it trades the copy's
// allocation against one more write call on the destination per
// chunk. At 2 KiB a write of the 1.5k-row benchmark catalog, whose
// per-column merge orders are mostly short, allocates 664 KB in 94
// write calls (the 10k-row catalog: 5.8 MB in 1,178).
const byRefMin = 2 << 10

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}

func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// seal closes a non-empty open run into a chunk. The next run reuses
// its spare capacity; appends there never touch the sealed bytes.
func (e *enc) seal() {
	if len(e.buf) > 0 {
		e.chunks = append(e.chunks, e.buf)
		e.sealed += len(e.buf)
		e.buf = e.buf[len(e.buf):]
	}
}

// align8 pads the payload to the next 8-byte boundary.
func (e *enc) align8() {
	for (e.sealed+len(e.buf))%8 != 0 {
		e.buf = append(e.buf, 0)
	}
}

// raw appends b to the payload: by reference when it is at least
// byRefMin bytes long, copied into the open run otherwise.
func (e *enc) raw(b []byte) {
	if len(b) < byRefMin {
		e.buf = append(e.buf, b...)
		return
	}
	e.seal()
	e.chunks = append(e.chunks, b)
	e.sealed += len(b)
}

// str writes a length-prefixed string.
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// bytes writes a length-prefixed raw byte blob.
func (e *enc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.raw(b)
}

// u32s and f64s write a length-prefixed flat little-endian array
// (floats bit-exact), 8-byte aligned.
func (e *enc) u32s(v []uint32)  { putArray(e, v) }
func (e *enc) f64s(v []float64) { putArray(e, v) }

// putArray writes v's length, pads to 8 bytes, then v. On little-endian
// hosts v's memory already is its encoding and goes out as is;
// elsewhere it is encoded element by element.
func putArray[T uint32 | float64](e *enc, v []T) {
	e.u32(uint32(len(v)))
	e.align8()
	if !hostLittleEndian {
		// Cannot fail: v is a slice of fixed-size numbers.
		e.buf, _ = binary.Append(e.buf, binary.LittleEndian, v)
		return
	}
	e.raw(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(v[0]))))
}

// dec reads one section payload with a sticky error: after the first
// failure every read returns a zero value and the error is reported by
// err(). Every declared count is bounds-checked against the remaining
// payload before any allocation, so a corrupted or adversarial snapshot
// can neither panic the decoder nor make it allocate more memory than
// the input's own size (plus small constants).
type dec struct {
	buf  []byte
	off  int
	fail error
}

func (d *dec) err() error { return d.fail }

// need reserves n bytes, failing the decoder when they are not there.
func (d *dec) need(n int) bool {
	if d.fail != nil {
		return false
	}
	if n < 0 || d.off+n > len(d.buf) || d.off+n < d.off {
		d.fail = errTruncatedf("payload needs %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64    { return int64(d.u64()) }
func (d *dec) f64() float64  { return math.Float64frombits(d.u64()) }
func (d *dec) boolean() bool { return d.u8() != 0 }

func (d *dec) align8() {
	for d.off%8 != 0 {
		if !d.need(1) {
			return
		}
		d.off++
	}
}

func (d *dec) str() string {
	n := int(d.u32())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// rawBytes returns a length-prefixed blob aliasing the snapshot buffer.
func (d *dec) rawBytes() []byte {
	n := int(d.u32())
	if !d.need(n) {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// u32s reads a length-prefixed flat []uint32 array. On little-endian
// hosts with an aligned buffer the returned slice aliases the snapshot
// buffer (zero copy); otherwise it decodes element-wise. Either way the
// slice must be treated as immutable.
func (d *dec) u32s() []uint32 {
	n := int(d.u32())
	d.align8()
	if !d.need(n * 4) {
		return nil
	}
	raw := d.buf[d.off : d.off+n*4]
	d.off += n * 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[i*4:])
	}
	return out
}

// f64s reads a length-prefixed flat []float64 array, zero-copy on
// aligned little-endian hosts (see u32s).
func (d *dec) f64s() []float64 {
	n := int(d.u32())
	d.align8()
	if !d.need(n * 8) {
		return nil
	}
	raw := d.buf[d.off : d.off+n*8]
	d.off += n * 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}
