package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// ReadCSV loads a table from CSV. The first record must be a header of
// the form "name" or "name:type" per column; untyped columns default to
// string. Example header: id:int,name:text,type:string,price:real.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relational: reading CSV header: %w", err)
	}
	attrs := make([]Attribute, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		n, ts, found := strings.Cut(h, ":")
		a := Attribute{Name: strings.TrimSpace(n), Type: String}
		if found {
			t, err := ParseType(ts)
			if err != nil {
				return nil, fmt.Errorf("relational: column %d: %w", i, err)
			}
			a.Type = t
		}
		if a.Name == "" {
			return nil, fmt.Errorf("relational: column %d has an empty name", i)
		}
		// Columns are addressed by name, so a repeated one is ambiguous.
		if seen[a.Name] {
			return nil, fmt.Errorf("relational: column %d repeats the name %q", i, a.Name)
		}
		seen[a.Name] = true
		attrs[i] = a
	}
	t := NewTable(name, attrs...)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relational: reading CSV line %d: %w", line, err)
		}
		if len(rec) != len(attrs) {
			return nil, fmt.Errorf("relational: line %d has %d fields, want %d", line, len(rec), len(attrs))
		}
		row := make(Tuple, len(attrs))
		for i, f := range rec {
			v, err := ParseValue(f, attrs[i].Type)
			if err != nil {
				return nil, fmt.Errorf("relational: line %d column %s: %w", line, attrs[i].Name, err)
			}
			row[i] = v
		}
		t.Append(row)
	}
	return t, nil
}

// ReadCSVFile loads a table from a CSV file; the table is named after the
// file's base name without extension unless name is non-empty.
func ReadCSVFile(name, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if name == "" {
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		name = strings.TrimSuffix(base, ".csv")
	}
	return ReadCSV(name, f)
}

// WriteCSV writes the table with a typed header, the inverse of ReadCSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Attrs))
	for i, a := range t.Attrs {
		header[i] = a.Name + ":" + a.Type.String()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(t.Attrs))
	for _, row := range t.Rows {
		for i, v := range row {
			rec[i] = v.Str()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
