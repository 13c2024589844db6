package server

import (
	"strconv"

	"repro/internal/core"
)

// scanColumns decodes the columns form of a batch body straight into the
// model's feature-ordered n x F row buffer, with no intermediate map. It
// accepts exactly one shape: a top-level object whose keys are "columns"
// (once) and "threshold" (at most once), written as plain ASCII with no
// escapes; each column a known feature, not repeated, holding an array
// of JSON numbers; every column the same length, between 1 and
// maxBatchRows; a threshold in [0,1]; and nothing but whitespace after
// the closing brace. Numbers are checked against the JSON grammar and
// converted by strconv.ParseFloat from the same bytes encoding/json
// converts, so every value is bit-identical to decodeBatch's.
//
// Every other body -- malformed, the rows form, unknown, duplicate or
// case-folded keys, null, escapes, ragged, empty or over-cap columns, a
// number out of range -- is declined (false, nothing written), and
// decodeBatch answers it over the same bytes with its own status and
// message. The first column is held until n is known, so an over-cap
// column is declined at value maxBatchRows+1, before the n x F buffer
// exists.
func scanColumns(v *core.ModelView, body []byte) (batch, bool) {
	s := columnScan{buf: body, v: v, seen: make([]bool, v.NumFeatures())}
	var threshold float64
	hasThreshold := false
	if !s.next('{') {
		return batch{}, false
	}
	for {
		key, ok := s.key()
		switch {
		case ok && string(key) == "columns" && s.flat == nil:
			ok = s.columns()
		case ok && string(key) == "threshold" && !hasThreshold:
			threshold, ok = s.number()
			hasThreshold = true
		default:
			ok = false
		}
		if !ok {
			return batch{}, false
		}
		if s.next('}') {
			break
		}
		if !s.next(',') {
			return batch{}, false
		}
	}
	s.space()
	if s.pos != len(s.buf) || s.flat == nil || threshold01(threshold) != nil {
		return batch{}, false
	}
	defaulted := []string{}
	for _, name := range v.Model.Features {
		if idx, _ := v.FeatureIndex(name); !s.seen[idx] {
			defaulted = append(defaulted, name)
		}
	}
	return columnsBatch(rowsOf(s.flat, len(s.seen)), defaulted, threshold), true
}

// columnScan is scanColumns' cursor over the body and the rows it fills.
type columnScan struct {
	buf  []byte
	pos  int
	v    *core.ModelView
	seen []bool    // by feature index: the body carried its column
	held []float64 // the first column: its length is n
	flat []float64 // the n x F row buffer, made when the first column ends
}

// columns scans the columns object, writing each value to
// flat[row*F+idx].
func (s *columnScan) columns() bool {
	if !s.next('{') {
		return false
	}
	f := len(s.seen)
	for {
		name, ok := s.key()
		if !ok {
			return false
		}
		idx, known := s.v.FeatureIndex(string(name))
		if !known || s.seen[idx] || !s.next('[') {
			return false
		}
		s.seen[idx] = true
		limit := maxBatchRows
		if s.flat != nil {
			limit = len(s.held)
		}
		r := 0
		for {
			x, ok := s.number()
			if !ok || r == limit {
				return false
			}
			if s.flat == nil {
				s.held = append(s.held, x)
			} else {
				s.flat[r*f+idx] = x
			}
			r++
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
		if s.flat == nil {
			s.flat = make([]float64, r*f)
			for i, x := range s.held {
				s.flat[i*f+idx] = x
			}
		} else if r != len(s.held) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// key scans an object key and the colon after it. Only printable ASCII
// without escapes is taken: encoding/json unescapes, or replaces invalid
// UTF-8 in, any other key, so only these are compared as written.
func (s *columnScan) key() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; {
		case c == '"':
			key := s.buf[start:s.pos]
			s.pos++
			return key, s.next(':')
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// number scans one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it as
// encoding/json does; a value ParseFloat refuses (out of range) is not
// ok.
func (s *columnScan) number() (float64, bool) {
	s.space()
	b, start := s.buf, s.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	s.pos = i
	x, err := strconv.ParseFloat(string(b[start:i]), 64)
	return x, err == nil
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// next skips whitespace and consumes c if it comes next.
func (s *columnScan) next(c byte) bool {
	s.space()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (s *columnScan) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}
