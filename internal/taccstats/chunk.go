package taccstats

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
)

// Chunk is the unit the streaming ingest path ships over the wire: a run
// of consecutive samples one node collected for one job. It is the
// single-node slice of an Archive, and its payload is exactly what
// Archive.Encode writes for a one-node archive (%jobid / %host
// directives followed by sample blocks), so the streamed and spooled
// forms of a node are bit-identical. Each direction has a fast path for
// that exact form and hands everything else to the Archive codec:
// AppendChunk appends into one buffer unless a sample repeats a device,
// and DecodeChunkInto scans the form in place (scanChunk) and gives
// every payload it declines to Decode. Bytes, chunks and error text are
// therefore the Archive codec's by construction.
type Chunk struct {
	JobID   string
	Host    string
	Samples []Sample

	// recs and vals are the arrays the last scan into the chunk cut
	// every Records and Values slice from. DecodeChunkInto reuses them,
	// and Samples' array.
	recs []Record
	vals []uint64
}

// EncodeChunk renders a chunk in the archive text format. The result is
// exactly what Archive.Encode writes for a one-node archive holding
// these samples.
func EncodeChunk(c *Chunk) ([]byte, error) { return AppendChunk(nil, c) }

// AppendChunk appends EncodeChunk's bytes for c to dst and returns the
// extended buffer, so a caller can encode behind a header of its own
// into a buffer it reuses.
func AppendChunk(dst []byte, c *Chunk) ([]byte, error) {
	if c.JobID == "" {
		return nil, fmt.Errorf("taccstats: chunk without job id")
	}
	if c.Host == "" {
		return nil, fmt.Errorf("taccstats: chunk without host")
	}
	if b, ok := appendChunk(dst, c); ok {
		return b, nil
	}
	a := &Archive{JobID: c.JobID, Nodes: []NodeArchive{{
		Host: c.Host, JobID: c.JobID, Samples: c.Samples,
	}}}
	buf := bytes.NewBuffer(dst)
	if err := a.Encode(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxSortedRecords bounds the records of one sample appendChunk orders
// through its stack index array.
const maxSortedRecords = 32

// appendChunk appends c to dst as Archive.Encode writes it, growing dst
// at most once, to room for the longest decimal form of every number.
// Each sample's records go out in device order through an
// insertion-sorted index array, which is the order sort.Slice gives any
// set of distinct device names. It declines (ok false) a sample that
// repeats a device, where sort.Slice alone decides the bytes, or that
// holds more than maxSortedRecords records.
func appendChunk(dst []byte, c *Chunk) ([]byte, bool) {
	const maxIntLen = len("-9223372036854775808") // MaxUint64 has as many digits
	n := len("%jobid \n%host \n") + len(c.JobID) + len(c.Host)
	for i := range c.Samples {
		s := &c.Samples[i]
		n += maxIntLen + len(" \n") + len(s.Marker)
		for j := range s.Records {
			n += len(s.Records[j].Device) + 1 + (1+maxIntLen)*len(s.Records[j].Values)
		}
	}
	b := dst
	if cap(b)-len(b) < n {
		b = make([]byte, len(dst), len(dst)+n)
		copy(b, dst)
	}
	b = append(b, "%jobid "...)
	b = append(b, c.JobID...)
	b = append(b, "\n%host "...)
	b = append(b, c.Host...)
	b = append(b, '\n')
	var order [maxSortedRecords]int
	for i := range c.Samples {
		s := &c.Samples[i]
		if len(s.Records) > len(order) {
			return nil, false
		}
		b = strconv.AppendInt(b, s.Time, 10)
		if s.Marker != "" {
			b = append(b, ' ')
			b = append(b, s.Marker...)
		}
		b = append(b, '\n')
		idx := order[:len(s.Records)]
		for j := range idx {
			k := j
			for ; k > 0 && s.Records[idx[k-1]].Device > s.Records[j].Device; k-- {
				idx[k] = idx[k-1]
			}
			if k > 0 && s.Records[idx[k-1]].Device == s.Records[j].Device {
				return nil, false
			}
			idx[k] = j
		}
		for _, j := range idx {
			rec := &s.Records[j]
			b = append(b, rec.Device...)
			for _, v := range rec.Values {
				b = append(b, ' ')
				b = strconv.AppendUint(b, v, 10)
			}
			b = append(b, '\n')
		}
	}
	return b, true
}

// DecodeChunk parses a payload written by EncodeChunk into a new chunk.
// It rejects payloads that do not describe exactly one node of one job,
// or that carry no samples — a record-bearing wire frame must bear records.
func DecodeChunk(b []byte) (*Chunk, error) {
	c := new(Chunk)
	if err := DecodeChunkInto(c, b); err != nil {
		return nil, err
	}
	return c, nil
}

// DecodeChunkInto is DecodeChunk into c. It overwrites whatever c held,
// on an error too, and reuses c's arrays: a payload the scanner accepts
// allocates nothing once c has held one at least as large, nor for a
// job id and host equal to c's. Payloads it declines go to the archive
// decoder, which allocates.
func DecodeChunkInto(c *Chunk, b []byte) error {
	if scanChunk(c, b) {
		return nil
	}
	a, err := decodeArchiveChunk(b)
	if err != nil {
		return err
	}
	c.JobID, c.Host, c.Samples = a.JobID, a.Host, a.Samples
	return nil
}

// decodeArchiveChunk is DecodeChunkInto for every payload scanChunk
// declines: the archive decoder, then the one-node checks.
func decodeArchiveChunk(b []byte) (*Chunk, error) {
	a, err := Decode(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if a.JobID == "" {
		return nil, fmt.Errorf("taccstats: chunk without job id")
	}
	if len(a.Nodes) != 1 {
		return nil, fmt.Errorf("taccstats: chunk carries %d nodes, want exactly 1", len(a.Nodes))
	}
	n := &a.Nodes[0]
	if n.Host == "" {
		return nil, fmt.Errorf("taccstats: chunk without host")
	}
	if len(n.Samples) == 0 {
		return nil, fmt.Errorf("taccstats: chunk carries no samples")
	}
	return &Chunk{JobID: a.JobID, Host: n.Host, Samples: n.Samples}, nil
}

// scanChunk parses into c, in place, a payload in the form EncodeChunk
// writes and nothing wider: "%jobid <tok>\n%host <tok>\n", then sample lines
// (at most 18 digits, optionally a space and one marker token), each
// followed by its device lines (a token opening with neither a digit
// nor '%', then single-space-separated decimal uint64s). Tokens are
// graphic ASCII and '\n' closes every line. It declines (ok false)
// anything else, and any payload long enough for Decode's line scanner
// to refuse, leaving c overwritten in part. An accepted payload yields
// exactly the chunk decodeArchiveChunk does, down to nil Records on a
// sample without records and non-nil empty Values on a device without
// values. Every Record shares one Values array and every Sample one
// Records array, each handed out capacity-capped; all three arrays are
// c's own when they are large enough.
func scanChunk(c *Chunk, b []byte) bool {
	if len(b) >= maxLine {
		return false
	}
	jobID, rest, ok := scanDirective(b, "%jobid ")
	if !ok {
		return false
	}
	host, rest, ok := scanDirective(rest, "%host ")
	if !ok || len(rest) == 0 || !isDigit(rest[0]) {
		return false
	}
	// Size every array exactly: a line opening with a digit is a sample,
	// any other a record with one value per space.
	var nSamples, nRecords, nValues int
	for lines := rest; len(lines) > 0; {
		i := bytes.IndexByte(lines, '\n')
		if i <= 0 {
			return false // a blank line, or no final newline
		}
		if isDigit(lines[0]) {
			nSamples++
		} else {
			nRecords++
			nValues += bytes.Count(lines[:i], []byte{' '})
		}
		lines = lines[i+1:]
	}
	samples, recs, vals := c.Samples[:0], c.recs[:0], c.vals[:0]
	if cap(samples) < nSamples {
		samples = make([]Sample, 0, nSamples)
	}
	if cap(recs) < nRecords {
		recs = make([]Record, 0, nRecords)
	}
	if vals == nil || cap(vals) < nValues { // never nil: Values must not be
		vals = make([]uint64, 0, nValues)
	}
	first := 0 // the current sample's first record
	for len(rest) > 0 {
		i := bytes.IndexByte(rest, '\n')
		line := rest[:i]
		rest = rest[i+1:]
		if isDigit(line[0]) {
			s, ok := scanSample(line)
			if !ok {
				return false
			}
			samples = append(samples, s)
			first = len(recs)
			continue
		}
		j := bytes.IndexByte(line, ' ')
		if j < 0 {
			j = len(line)
		}
		if !isToken(line[:j]) || line[0] == '%' {
			return false
		}
		dev := deviceName(line[:j])
		v0 := len(vals)
		for j < len(line) {
			j++ // the separating space
			start := j
			var v uint64
			for ; j < len(line) && isDigit(line[j]); j++ {
				d := uint64(line[j] - '0')
				if v > math.MaxUint64/10 {
					return false
				}
				if v = v*10 + d; v < d {
					return false // wrapped past MaxUint64
				}
			}
			if j == start || (j < len(line) && line[j] != ' ') {
				return false
			}
			vals = append(vals, v)
		}
		recs = append(recs, Record{Device: dev, Values: vals[v0:len(vals):len(vals)]})
		samples[len(samples)-1].Records = recs[first:len(recs):len(recs)]
	}
	c.Samples, c.recs, c.vals = samples, recs, vals
	if string(jobID) != c.JobID {
		c.JobID = string(jobID)
	}
	if string(host) != c.Host {
		c.Host = string(host)
	}
	return true
}

// scanDirective reads "<prefix><tok>\n" off the front of b.
func scanDirective(b []byte, prefix string) (tok, rest []byte, ok bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, nil, false
	}
	b = b[len(prefix):]
	i := bytes.IndexByte(b, '\n')
	if i < 0 || !isToken(b[:i]) {
		return nil, nil, false
	}
	return b[:i], b[i+1:], true
}

// scanSample parses a sample line: a timestamp of at most 18 digits,
// which cannot overflow int64, then optionally a space and a marker.
func scanSample(line []byte) (Sample, bool) {
	var s Sample
	j := 0
	for ; j < len(line) && isDigit(line[j]); j++ {
		s.Time = s.Time*10 + int64(line[j]-'0')
	}
	switch {
	case j > 18:
		return Sample{}, false
	case j == len(line):
		return s, true
	case line[j] != ' ' || !isToken(line[j+1:]):
		return Sample{}, false
	}
	switch tok := line[j+1:]; string(tok) {
	case MarkerBegin:
		s.Marker = MarkerBegin
	case MarkerEnd:
		s.Marker = MarkerEnd
	default:
		s.Marker = string(tok)
	}
	return s, true
}

// deviceName interns the schema's device names.
func deviceName(b []byte) string {
	switch string(b) {
	case DevCPU:
		return DevCPU
	case DevPMC:
		return DevPMC
	case DevMem:
		return DevMem
	case DevNet:
		return DevNet
	case DevIB:
		return DevIB
	case DevNFS:
		return DevNFS
	case DevLLite:
		return DevLLite
	case DevLNet:
		return DevLNet
	case DevBlock:
		return DevBlock
	}
	return string(b)
}

// isToken reports whether b is a non-empty run of graphic ASCII.
func isToken(b []byte) bool {
	for _, c := range b {
		if c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return len(b) > 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
