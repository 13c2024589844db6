package taccstats

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Record is the values read from one device at one sample.
type Record struct {
	Device string
	Values []uint64
}

// Sample is everything the collector read on one node at one instant.
type Sample struct {
	Time    int64 // unix seconds
	Marker  string
	Records []Record
}

// Sample markers, mirroring TACC_Stats' begin/end/rotate annotations.
const (
	MarkerBegin = "begin" // batch prolog, job start
	MarkerCron  = ""      // periodic collection
	MarkerEnd   = "end"   // batch epilog, job end
)

// NodeArchive is the time-ordered sequence of samples one node recorded for
// one job.
type NodeArchive struct {
	Host    string
	JobID   string
	Samples []Sample
}

// Archive is the full raw data for one job: one node archive per host.
type Archive struct {
	JobID string
	Nodes []NodeArchive
}

// Encode writes the archive in the TACC_Stats-like text format:
//
//	%jobid <id>
//	%host <hostname>
//	<unix-time> [marker]
//	<device> <v0> <v1> ...
//
// Device lines repeat per sample; a new %host section starts each node.
func (a *Archive) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%jobid %s\n", a.JobID)
	for _, n := range a.Nodes {
		fmt.Fprintf(bw, "%%host %s\n", n.Host)
		for _, s := range n.Samples {
			if s.Marker != "" {
				fmt.Fprintf(bw, "%d %s\n", s.Time, s.Marker)
			} else {
				fmt.Fprintf(bw, "%d\n", s.Time)
			}
			// Deterministic device order for reproducible output.
			recs := append([]Record(nil), s.Records...)
			sort.Slice(recs, func(i, j int) bool { return recs[i].Device < recs[j].Device })
			for _, rec := range recs {
				bw.WriteString(rec.Device)
				for _, v := range rec.Values {
					bw.WriteByte(' ')
					bw.WriteString(strconv.FormatUint(v, 10))
				}
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}

// maxLine is the longest line Decode reads. Its scanner's buffer never
// fills, so never refuses a line, on input shorter than this.
const maxLine = 1 << 22

// Decode parses an archive previously written by Encode.
func Decode(r io.Reader) (*Archive, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLine)
	a := &Archive{}
	var node *NodeArchive
	var sample *Sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		// An empty id/host encodes as "%jobid \n", which arrives here
		// trimmed to the bare directive; accept both forms.
		case line == "%jobid" || strings.HasPrefix(line, "%jobid "):
			a.JobID = strings.TrimPrefix(strings.TrimPrefix(line, "%jobid"), " ")
		case line == "%host" || strings.HasPrefix(line, "%host "):
			a.Nodes = append(a.Nodes, NodeArchive{
				Host:  strings.TrimPrefix(strings.TrimPrefix(line, "%host"), " "),
				JobID: a.JobID,
			})
			node = &a.Nodes[len(a.Nodes)-1]
			sample = nil
		case line[0] >= '0' && line[0] <= '9':
			if node == nil {
				return nil, fmt.Errorf("taccstats: line %d: sample before %%host", lineNo)
			}
			fields := strings.Fields(line)
			t, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("taccstats: line %d: bad timestamp %q", lineNo, fields[0])
			}
			marker := ""
			if len(fields) > 1 {
				marker = fields[1]
			}
			node.Samples = append(node.Samples, Sample{Time: t, Marker: marker})
			sample = &node.Samples[len(node.Samples)-1]
		default:
			if sample == nil {
				return nil, fmt.Errorf("taccstats: line %d: record before sample header", lineNo)
			}
			fields := strings.Fields(line)
			rec := Record{Device: fields[0], Values: make([]uint64, 0, len(fields)-1)}
			for _, f := range fields[1:] {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("taccstats: line %d: bad value %q", lineNo, f)
				}
				rec.Values = append(rec.Values, v)
			}
			sample.Records = append(sample.Records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// Find returns the record for the named device within a sample, or nil.
func (s *Sample) Find(device string) *Record {
	for i := range s.Records {
		if s.Records[i].Device == device {
			return &s.Records[i]
		}
	}
	return nil
}

// CounterDelta computes cur-prev for a counter that may have rolled over.
// pmc marks 48-bit hardware counters; 64-bit kernel counters are assumed
// never to wrap within a job.
func CounterDelta(prev, cur uint64, pmc bool) uint64 {
	if pmc {
		prev &= pmcMask
		cur &= pmcMask
		return (cur - prev) & pmcMask
	}
	return cur - prev
}
