package server

import (
	"bytes"
	"strconv"

	"repro/internal/core"
)

// The scanners below decode the JSON bodies the server scores straight
// into the model's feature-ordered rows, with no intermediate map. Each
// accepts only bodies it can prove encoding/json would decode to the
// same rows: keys written as plain ASCII with no escapes, matched as
// written (never case-folded), none repeated; values of the JSON number
// grammar, converted by strconv.ParseFloat from the same bytes
// encoding/json converts, so every value is bit-identical; a threshold
// in [0,1]; nothing but whitespace after the closing brace. Every other
// body -- malformed, null, escaped, unknown or repeated keys, a number
// out of range, a row the encoding/json path would refuse -- is declined
// (false, nothing stored), and the route's encoding/json path (decodeRow
// or decodeBatch) answers it over the same bytes with its own status and
// message. That path is the oracle the scanners are tested against.

// scanRow decodes a single-row body, {"features":{name: number, ...}},
// into an F-wide row and its defaulted list. threshold is the request's
// threshold field, or nil on a route whose request has none: then a
// "threshold" key is declined like any other. On accept the threshold
// (0 when the body has none) is stored through it.
func scanRow[M core.Servable](v *core.View[M], body []byte, threshold *float64) (row []float64, defaulted []string, ok bool) {
	s := newBodyScan(v, body)
	ok = s.members(func(key []byte) bool {
		switch {
		case string(key) == "features" && row == nil:
			row = make([]float64, len(s.seen))
			return s.object(row)
		case string(key) == "threshold" && threshold != nil:
			return s.threshold()
		}
		return false
	})
	if !ok || !s.end() || row == nil || threshold01(s.t) != nil {
		return nil, nil, false
	}
	if threshold != nil {
		*threshold = s.t
	}
	return row, s.defaulted(), true
}

// scanBatch decodes a batch body in either form into one n x F row
// buffer: "rows", an array of 1..maxBatchRows feature objects, each with
// its own defaulted list; or "columns", an object of equal-length number
// arrays, one per feature, between 1 and maxBatchRows long, whose rows
// all default the same features. Exactly one form, and at most one
// "threshold". The rows buffer is sized from the body's count of '{',
// capped at maxBatchRows rows, so a plain rows body is scanned without
// regrowth. The first column is held until n is known, so an over-cap
// column is declined at value maxBatchRows+1, before the n x F buffer
// exists.
func scanBatch(v *core.ModelView, body []byte) (batch, bool) {
	s := newBodyScan(v, body)
	ok := s.members(func(key []byte) bool {
		switch {
		case string(key) == "rows" && s.flat == nil:
			return s.rows()
		case string(key) == "columns" && s.flat == nil:
			return s.columns()
		case string(key) == "threshold":
			return s.threshold()
		}
		return false
	})
	if !ok || !s.end() || s.flat == nil || threshold01(s.t) != nil {
		return batch{}, false
	}
	rows := rowsOf(s.flat, len(s.seen))
	if s.defs != nil {
		return batch{rows: rows, defaulted: s.defs, threshold: s.t}, true
	}
	return columnsBatch(rows, s.defaulted(), s.t), true
}

// bodyScan is the scanners' cursor over a body and the rows it fills.
type bodyScan[M core.Servable] struct {
	buf  []byte
	pos  int
	v    *core.View[M]
	seen []bool // by feature index: the current row (or the body's columns) carried it

	t    float64 // the threshold, 0 until scanned
	hasT bool

	held []float64  // columns: the first column, whose length is n
	flat []float64  // the n x F row buffer
	defs [][]string // rows: each row's defaulted list
}

func newBodyScan[M core.Servable](v *core.View[M], body []byte) bodyScan[M] {
	return bodyScan[M]{buf: body, v: v, seen: make([]bool, v.NumFeatures())}
}

// defaulted lists the features seen does not mark, in model feature
// order (a view indexes features by their position in FeatureNames). A
// complete row's list is empty and allocates nothing.
func (s *bodyScan[M]) defaulted() []string {
	names := s.v.Model.FeatureNames()
	out := []string{}
	for i, ok := range s.seen {
		if !ok {
			out = append(out, names[i])
		}
	}
	return out
}

// threshold scans the threshold value, at most once a body.
func (s *bodyScan[M]) threshold() bool {
	if s.hasT {
		return false
	}
	s.hasT = true
	var ok bool
	s.t, ok = s.number()
	return ok
}

// object scans one {name: number, ...} object into row, F zeros wide,
// marking each feature in seen. An empty object, an unknown name and a
// repeated one are declined: the encoding/json path answers them.
func (s *bodyScan[M]) object(row []float64) bool {
	return s.members(func(name []byte) bool {
		idx, known := s.v.FeatureIndex(string(name))
		if !known || s.seen[idx] {
			return false
		}
		s.seen[idx] = true
		var ok bool
		row[idx], ok = s.number()
		return ok
	})
}

// rows scans the rows array, one object per row, appended to flat.
func (s *bodyScan[M]) rows() bool {
	f := len(s.seen)
	n := min(max(bytes.Count(s.buf[s.pos:], []byte{'{'}), 1), maxBatchRows)
	s.flat = make([]float64, 0, n*f)
	s.defs = make([][]string, 0, n)
	return s.elements(func() bool {
		if len(s.defs) == maxBatchRows {
			return false
		}
		s.flat = append(s.flat, make([]float64, f)...)
		if !s.object(s.flat[len(s.flat)-f:]) {
			return false
		}
		s.defs = append(s.defs, s.defaulted())
		clear(s.seen)
		return true
	})
}

// columns scans the columns object, writing each value to
// flat[row*F+idx].
func (s *bodyScan[M]) columns() bool {
	f := len(s.seen)
	return s.members(func(name []byte) bool {
		idx, known := s.v.FeatureIndex(string(name))
		if !known || s.seen[idx] {
			return false
		}
		s.seen[idx] = true
		limit := maxBatchRows
		if s.flat != nil {
			limit = len(s.held)
		}
		r := 0
		ok := s.elements(func() bool {
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
			return true
		})
		switch {
		case !ok:
			return false
		case s.flat == nil:
			s.flat = make([]float64, r*f)
			for i, x := range s.held {
				s.flat[i*f+idx] = x
			}
			return true
		}
		return r == len(s.held)
	})
}

// members scans one object, handing each key to member, which consumes
// the value after the colon. An empty object is declined: no caller
// accepts one.
func (s *bodyScan[M]) members(member func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	for {
		key, ok := s.key()
		if !ok || !member(key) {
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

// elements scans one array, calling element for each value. An empty
// array is declined, since every element func refuses a ']'.
func (s *bodyScan[M]) elements(element func() bool) bool {
	if !s.next('[') {
		return false
	}
	for {
		if !element() {
			return false
		}
		if s.next(']') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// end reports whether nothing but whitespace is left.
func (s *bodyScan[M]) end() bool {
	s.space()
	return s.pos == len(s.buf)
}

// key scans an object key and the colon after it. Only printable ASCII
// without escapes is taken: encoding/json unescapes, or replaces invalid
// UTF-8 in, any other key, so only these are compared as written.
func (s *bodyScan[M]) key() ([]byte, bool) {
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
func (s *bodyScan[M]) number() (float64, bool) {
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
func (s *bodyScan[M]) next(c byte) bool {
	s.space()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// space skips JSON whitespace.
func (s *bodyScan[M]) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}
