package relational

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleCSV = `id:int,name:text,type,instock:bool,price:real
0,leaves of grass,book,Y,12.5
1,the white album,cd,N,9.99
2,wasteland,book,true,
`

// cell returns row r's value for the named attribute of t.
func cell(t *Table, r int, name string) Value { return t.Rows[r][t.AttrIndex(name)] }

func TestReadCSV(t *testing.T) {
	tab, err := ReadCSV("inv", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "inv" || tab.Len() != 3 {
		t.Fatalf("name=%q len=%d", tab.Name, tab.Len())
	}
	if a, _ := tab.Attr("type"); a.Type != String {
		t.Errorf("untyped column should default to string, got %v", a.Type)
	}
	if a, _ := tab.Attr("price"); a.Type != Real {
		t.Errorf("price type = %v", a.Type)
	}
	if !cell(tab, 0, "instock").Equal(B(true)) {
		t.Errorf("Y should parse as true, got %v", cell(tab, 0, "instock"))
	}
	if !cell(tab, 2, "price").IsNull() {
		t.Errorf("empty cell should be NULL, got %v", cell(tab, 2, "price"))
	}
	if !cell(tab, 1, "price").Equal(F(9.99)) {
		t.Errorf("price = %v", cell(tab, 1, "price"))
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
	}{
		{"bad type", "a:blob\nx\n"},
		{"empty column name", ":int\n1\n"},
		{"duplicate column name", "a:int, a:text\n1,x\n"},
		{"wrong arity", "a:int,b:int\n1\n"},
		{"bad int", "a:int\nnotanumber\n"},
		{"bad bool", "a:bool\nperhaps\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV("t", strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig, err := ReadCSV("inv", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("inv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() || len(back.Attrs) != len(orig.Attrs) {
		t.Fatalf("round trip changed shape: %d/%d rows, %d/%d attrs",
			back.Len(), orig.Len(), len(back.Attrs), len(orig.Attrs))
	}
	for i := range orig.Rows {
		for j := range orig.Rows[i] {
			a, b := orig.Rows[i][j], back.Rows[i][j]
			if !a.Equal(b) && !(a.IsNull() && b.IsNull()) {
				t.Errorf("row %d col %d: %v != %v", i, j, a, b)
			}
		}
	}
}

func TestReadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stock.csv")
	if err := os.WriteFile(path, []byte("a:int\n1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := ReadCSVFile("", path)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "stock" {
		t.Errorf("default name = %q, want stock", tab.Name)
	}
	tab, err = ReadCSVFile("other", path)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "other" {
		t.Errorf("explicit name = %q", tab.Name)
	}
	if _, err := ReadCSVFile("", filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
}
