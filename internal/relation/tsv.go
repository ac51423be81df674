package relation

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteTSV serializes the relation as tab-separated values, one tuple per
// line, in insertion order.
func (r *Relation) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for ti, n := 0, r.Size(); ti < n; ti++ {
		for i, v := range r.Tuple(ti) {
			if i > 0 {
				if err := bw.WriteByte('\t'); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(v.Text()); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses tab-separated tuples into a new relation with the given
// name and arity. Blank lines are skipped. Lines with the wrong number of
// fields are an error.
func ReadTSV(name string, arity int, rd io.Reader) (*Relation, error) {
	r := New(name, arity)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	t := make(Tuple, arity) // scratch: Add copies
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) != arity {
			return nil, fmt.Errorf("relation %s line %d: got %d fields, want %d", name, lineNo, len(fields), arity)
		}
		for i, f := range fields {
			t[i] = ParseValue(f)
		}
		r.Add(t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	return r, nil
}
