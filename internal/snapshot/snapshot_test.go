package snapshot_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/snapshot"
)

// smallCatalog is a hand-built two-table catalog of a few rows mixing
// string, numeric and boolean columns: small enough that its snapshot
// is a few KB, rich enough that the snapshot carries every section —
// the candidate index, numeric ranges and classifiers of all three
// domains.
func smallCatalog() *relational.Schema {
	books := relational.NewTable("books",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real},
		relational.Attribute{Name: "instock", Type: relational.Bool},
	)
	for _, r := range []struct {
		title string
		price float64
		in    bool
	}{
		{"heart of darkness", 12.5, true},
		{"leaves of grass", 9, false},
		{"a secret history", 14.25, true},
		{"the waves", 11, true},
	} {
		books.Append(relational.Tuple{relational.S(r.title), relational.F(r.price), relational.B(r.in)})
	}
	music := relational.NewTable("music",
		relational.Attribute{Name: "album", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	for _, r := range []struct {
		album string
		price float64
	}{
		{"abbey road", 10},
		{"hotel california", 11.5},
		{"kind of blue", 8.75},
	} {
		music.Append(relational.Tuple{relational.S(r.album), relational.F(r.price)})
	}
	return relational.NewSchema("shop", books, music)
}

// writeSmall prepares smallCatalog under default options and returns
// its snapshot.
func writeSmall(t *testing.T) []byte {
	t.Helper()
	m, err := ctxmatch.New()
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := m.Prepare(context.Background(), smallCatalog())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tgt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// golden reads a committed snapshot from testdata.
func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Container layout of both format versions: a 16-byte header (magic,
// u16 version, u32 section count, u32 reserved) and one 24-byte table
// entry per section (u32 id, u32 CRC32, u64 offset, u64 length).
const (
	headerSize     = 16
	tableEntrySize = 24
	secMeta        = 1
	secDict        = 3
	secFeatures    = 4
	secIndex       = 5
	secClassifiers = 6 // format 1 only
)

// metaFlagOffset is where a format-1 meta section holds the byte that
// was the exhaustive-engine flag: after ten option fields (tau, omega,
// early disjuncts, inference, selection, significance, train fraction,
// max depth, seed, parallelism — 65 bytes) and the f64 evidence scale.
const metaFlagOffset = 65 + 8

// Reserved i64 fields of format 1 that held retired engine settings,
// written as 0. In the meta section, the flag byte and a u32 matcher
// count precede the default suite's matchers — name, value n-gram,
// numeric, type — each a tag byte and an f64 weight; the n-gram
// matcher's weight is followed by its former value cap, the numeric
// matcher's by its former histogram bin count. The feature section
// leads with the former value cap.
const (
	metaNGramCapOffset = metaFlagOffset + 1 + 4 + (1 + 8) + (1 + 8)
	metaBinsOffset     = metaNGramCapOffset + 8 + (1 + 8)
	featuresCapOffset  = 0
)

// section locates one section of a container: its table entry and its
// payload.
type section struct{ entry, off, n int }

func sections(t *testing.T, data []byte) map[uint32]section {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[8:]))
	out := make(map[uint32]section, count)
	for i := 0; i < count; i++ {
		e := headerSize + i*tableEntrySize
		out[binary.LittleEndian.Uint32(data[e:])] = section{
			entry: e,
			off:   int(binary.LittleEndian.Uint64(data[e+8:])),
			n:     int(binary.LittleEndian.Uint64(data[e+16:])),
		}
	}
	return out
}

// reseal recomputes a section's recorded CRC32 after its payload was
// edited, so a reader gets past the checksum to the edited content.
func reseal(data []byte, s section) {
	binary.LittleEndian.PutUint32(data[s.entry+4:], crc32.ChecksumIEEE(data[s.off:s.off+s.n]))
}

// structured reports whether err wraps one of the codec's sentinels.
func structured(err error) bool {
	for _, s := range []error{snapshot.ErrFormat, snapshot.ErrVersion, snapshot.ErrChecksum, snapshot.ErrTruncated, snapshot.ErrUnsupported} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// TestWriteReadWrite: writing what Read restored reproduces the
// snapshot byte for byte, through the codec and through the public
// handle alike.
func TestWriteReadWrite(t *testing.T) {
	data := writeSmall(t)
	a, n, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Errorf("Read reported %d bytes, snapshot has %d", n, len(data))
	}
	if a.Features.Index() == nil {
		t.Fatal("small catalog lost its index section")
	}
	var again bytes.Buffer
	if _, err := snapshot.Write(&again, a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("Write(Read(s)) differs from s: %d vs %d bytes", again.Len(), len(data))
	}
	tgt, err := ctxmatch.LoadTarget(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	again.Reset()
	if _, err := tgt.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Fatal("a loaded handle's snapshot differs from the one it was loaded from")
	}
}

// TestFormerEngineFlagUnsupported: the format-1 meta byte that held the
// retired exhaustive-engine flag was always written as 0, and a
// format-1 snapshot with it set — CRC intact, so the checksum is not
// what fails — is content this reader does not support.
func TestFormerEngineFlagUnsupported(t *testing.T) {
	data := golden(t, "v1-small.snap")
	meta := sections(t, data)[secMeta]
	if got := data[meta.off+metaFlagOffset]; got != 0 {
		t.Fatalf("former engine flag written as %d, want 0", got)
	}
	data[meta.off+metaFlagOffset] = 1
	reseal(data, meta)
	_, _, err := snapshot.Read(bytes.NewReader(data))
	if !errors.Is(err, snapshot.ErrUnsupported) {
		t.Fatalf("flag set: %v, want ErrUnsupported", err)
	}
}

// TestReservedEngineFieldsUnsupported: the format-1 fields that held
// the n-gram value cap and the histogram bin count were always written
// as 0, and a format-1 snapshot with any of them set — CRC intact, so
// the checksum is not what fails — describes an engine this build does
// not run.
func TestReservedEngineFieldsUnsupported(t *testing.T) {
	data := golden(t, "v1-small.snap")
	secs := sections(t, data)
	meta := secs[secMeta]
	if tag := data[meta.off+metaNGramCapOffset-9]; tag != 2 {
		t.Fatalf("n-gram matcher tag %d, want 2: offsets out of date", tag)
	}
	if tag := data[meta.off+metaBinsOffset-9]; tag != 3 {
		t.Fatalf("numeric matcher tag %d, want 3: offsets out of date", tag)
	}
	for _, f := range []struct {
		name string
		sec  section
		off  int
	}{
		{"meta n-gram cap", meta, metaNGramCapOffset},
		{"meta bin count", meta, metaBinsOffset},
		{"feature n-gram cap", secs[secFeatures], featuresCapOffset},
	} {
		at := f.sec.off + f.off
		if v := binary.LittleEndian.Uint64(data[at:]); v != 0 {
			t.Fatalf("%s written as %d, want 0", f.name, v)
		}
		edited := bytes.Clone(data)
		binary.LittleEndian.PutUint64(edited[at:], 16)
		reseal(edited, f.sec)
		_, err := ctxmatch.LoadTarget(bytes.NewReader(edited))
		if errors.Is(err, ctxmatch.ErrSnapshotChecksum) {
			t.Fatalf("%s set: the reseal did not take: %v", f.name, err)
		}
		if !errors.Is(err, ctxmatch.ErrSnapshotUnsupported) {
			t.Errorf("%s set: %v, want ErrSnapshotUnsupported", f.name, err)
		}
	}
}

// TestVersionAndChecksum: a changed format version fails with
// ErrVersion, a flipped payload byte with ErrChecksum.
func TestVersionAndChecksum(t *testing.T) {
	data := writeSmall(t)
	bumped := bytes.Clone(data)
	binary.LittleEndian.PutUint16(bumped[6:], snapshot.Version+1)
	if _, _, err := snapshot.Read(bytes.NewReader(bumped)); !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("version %d: %v, want ErrVersion", snapshot.Version+1, err)
	}
	flipped := bytes.Clone(data)
	meta := sections(t, flipped)[secMeta]
	flipped[meta.off] ^= 0xff
	if _, _, err := snapshot.Read(bytes.NewReader(flipped)); !errors.Is(err, snapshot.ErrChecksum) {
		t.Errorf("flipped payload byte: %v, want ErrChecksum", err)
	}
}

// TestEveryTruncationFails: every proper prefix of a snapshot fails
// with a structured error, never a panic.
func TestEveryTruncationFails(t *testing.T) {
	data := writeSmall(t)
	for n := 0; n < len(data); n++ {
		_, _, err := snapshot.Read(bytes.NewReader(data[:n]))
		if !structured(err) {
			t.Fatalf("prefix of %d bytes: %v, want a structured error", n, err)
		}
	}
}

// TestGoldenV1Snapshot: testdata/v1-small.snap is smallCatalog prepared
// under default options and written in format 1, while the meta section
// still carried the exhaustive-engine flag. It must load — re-prepared
// from the schema and options it carries — and writing the loaded
// handle must reproduce testdata/v2-small.snap byte for byte, the
// format-2 snapshot of the same catalog. Never regenerate the file.
func TestGoldenV1Snapshot(t *testing.T) {
	data := golden(t, "v1-small.snap")
	tgt, err := ctxmatch.LoadTarget(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st := tgt.Stats(); st.Tables != 2 || st.Rows != 7 || st.IndexPostings == 0 || st.Classifiers == 0 {
		t.Fatalf("golden snapshot restored an unexpected catalog: %+v", st)
	}
	var buf bytes.Buffer
	if _, err := tgt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "v2-small.snap"); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rewritten golden snapshot differs from v2-small.snap: %d vs %d bytes", buf.Len(), len(want))
	}
}

// TestGoldenV2Snapshot: testdata/v2-small.snap is what preparing
// smallCatalog under default options writes in format 2, and a handle
// loaded from it — which compiles its classifiers at load — writes it
// back byte for byte. Regenerate the file only together with a format
// version bump.
func TestGoldenV2Snapshot(t *testing.T) {
	data := golden(t, "v2-small.snap")
	if !bytes.Equal(writeSmall(t), data) {
		t.Fatal("preparing smallCatalog no longer writes v2-small.snap")
	}
	tgt, err := ctxmatch.LoadTarget(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st := tgt.Stats(); st.Classifiers != 3 || tgt.Prepared().Upgraded() {
		t.Fatalf("format-2 load: %d classifiers, upgraded %v; want 3, false", st.Classifiers, tgt.Prepared().Upgraded())
	}
	var buf bytes.Buffer
	if _, err := tgt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("rewritten golden snapshot differs: %d vs %d bytes", buf.Len(), len(data))
	}
}

// TestV1ReprepareMatchesStored: re-preparing v1-small.snap's catalog
// reproduces, bit for bit, the dictionary, column vectors, numeric
// columns, name vectors and candidate index the file stored. The
// dictionary and index sections of the two formats share one layout,
// so they must be equal byte for byte; the format-2 feature section is
// format 1's without its leading reserved i64 and with the merge orders
// appended. (The likelihood table is checked beside its oracle, in
// internal/classify.)
func TestV1ReprepareMatchesStored(t *testing.T) {
	v1 := golden(t, "v1-small.snap")
	tgt, err := ctxmatch.LoadTarget(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if !tgt.Prepared().Upgraded() {
		t.Error("a format-1 load does not report Upgraded")
	}
	var buf bytes.Buffer
	if _, err := tgt.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	s1, s2 := sections(t, v1), sections(t, v2)
	payload := func(data []byte, s section) []byte { return data[s.off : s.off+s.n] }
	for _, id := range []uint32{secDict, secIndex} {
		if !bytes.Equal(payload(v1, s1[id]), payload(v2, s2[id])) {
			t.Errorf("section %d differs between the stored and the re-prepared catalog", id)
		}
	}
	f1, f2 := payload(v1, s1[secFeatures]), payload(v2, s2[secFeatures])
	if len(f2) < len(f1)-8 || !bytes.Equal(f1[8:], f2[:len(f1)-8]) {
		t.Error("re-prepared feature layer differs from the stored one")
	}
	if _, ok := s2[secClassifiers]; ok {
		t.Error("format 2 wrote a classifier section")
	}
}

// TestRestoreValidatesFeatureIDs: a format-2 snapshot whose column
// vector names a gram ID past the dictionary, or whose merge order is
// not a permutation of its column's IDs, fails with ErrFormat — CRC
// intact, so the checksum is not what fails. The feature section opens
// with the string-column count and the first column's table and
// attribute indices; the u32 length of its vector IDs follows at 12,
// the IDs at 16. The section ends with the last column's merge order.
func TestRestoreValidatesFeatureIDs(t *testing.T) {
	data := golden(t, "v2-small.snap")
	feat := sections(t, data)[secFeatures]
	for name, edit := range map[string]func(p []byte){
		"vector id past the dictionary": func(p []byte) {
			n := int(binary.LittleEndian.Uint32(p[12:]))
			binary.LittleEndian.PutUint32(p[16+4*(n-1):], 1<<31)
		},
		"merge order repeats an id": func(p []byte) {
			copy(p[len(p)-4:], p[len(p)-8:len(p)-4])
		},
	} {
		edited := bytes.Clone(data)
		edit(edited[feat.off : feat.off+feat.n])
		reseal(edited, feat)
		_, _, err := snapshot.Read(bytes.NewReader(edited))
		if !errors.Is(err, snapshot.ErrFormat) {
			t.Errorf("%s: %v, want ErrFormat", name, err)
		}
	}
}
