package tuple

import (
	"fmt"
)

// Tuple is a row: one Value per schema column.
type Tuple []Value

// Clone returns a deep-enough copy of the tuple (values are immutable, so a
// slice copy suffices).
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether two tuples have identical length and values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

func (t Tuple) String() string {
	s := "("
	for i, v := range t {
		if i > 0 {
			s += ", "
		}
		s += v.String()
	}
	return s + ")"
}

// ColumnDef declares one column of a schema.
type ColumnDef struct {
	Name string
	Kind Kind
}

// Col is shorthand for constructing a ColumnDef.
func Col(name string, kind Kind) ColumnDef { return ColumnDef{Name: name, Kind: kind} }

// Schema describes a table's columns. Schemas are immutable after creation.
type Schema struct {
	table   string
	columns []ColumnDef
	byName  map[string]int
}

// NewSchema builds a schema for the named table. Column names must be unique.
func NewSchema(table string, cols ...ColumnDef) (*Schema, error) {
	s := &Schema{
		table:   table,
		columns: append([]ColumnDef(nil), cols...),
		byName:  make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("tuple: schema %q: column %d has empty name", table, i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("tuple: schema %q: duplicate column %q", table, c.Name)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for static
// workload definitions.
func MustSchema(table string, cols ...ColumnDef) *Schema {
	s, err := NewSchema(table, cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Table returns the table name the schema belongs to.
func (s *Schema) Table() string { return s.table }

// NumColumns returns the column count.
func (s *Schema) NumColumns() int { return len(s.columns) }

// Column returns the definition of column i.
func (s *Schema) Column(i int) ColumnDef { return s.columns[i] }

// ColIndex returns the index of the named column, or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}
