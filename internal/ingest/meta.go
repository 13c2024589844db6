package ingest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// JobMeta is the accounting metadata the batch prolog knows about a job
// and ships in a Meta frame: identity, sizing, and the labels the
// warehouse groups by. Nodes is load-bearing — it is how the shard
// knows every host has delivered its epilog and the job can finalize.
type JobMeta struct {
	JobID    string
	User     string
	AppLabel string
	Category string
	Pop      string // population label: community | uncategorized | na
	Nodes    int
	Cores    int
	Submit   int64
	Start    int64
	ExitCode int // job-script exit status (what the failed labels are cut from)
}

// Encode renders the metadata as sorted key=value lines (the meta-frame
// payload). Values are strconv-quoted so ids and labels may contain
// spaces or newlines without breaking the line discipline.
func (m *JobMeta) Encode() ([]byte, error) {
	if m.JobID == "" {
		return nil, fmt.Errorf("ingest: job meta without job id")
	}
	if m.Nodes <= 0 {
		return nil, fmt.Errorf("ingest: job meta %q with non-positive node count %d", m.JobID, m.Nodes)
	}
	pairs := map[string]string{
		"job":      strconv.Quote(m.JobID),
		"user":     strconv.Quote(m.User),
		"app":      strconv.Quote(m.AppLabel),
		"category": strconv.Quote(m.Category),
		"pop":      strconv.Quote(m.Pop),
		"nodes":    strconv.Itoa(m.Nodes),
		"cores":    strconv.Itoa(m.Cores),
		"submit":   strconv.FormatInt(m.Submit, 10),
		"start":    strconv.FormatInt(m.Start, 10),
		"exit":     strconv.Itoa(m.ExitCode),
	}
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(pairs[k])
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// ParseJobMeta parses a meta-frame payload written by Encode. Unknown
// keys are rejected so a schema drift between collector and daemon is
// loud, not silently lossy.
func ParseJobMeta(b []byte) (*JobMeta, error) {
	m := &JobMeta{}
	for ln, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("ingest: meta line %d is not key=value: %q", ln+1, line)
		}
		var err error
		unq := func() (string, error) { return strconv.Unquote(val) }
		switch key {
		case "job":
			m.JobID, err = unq()
		case "user":
			m.User, err = unq()
		case "app":
			m.AppLabel, err = unq()
		case "category":
			m.Category, err = unq()
		case "pop":
			m.Pop, err = unq()
		case "nodes":
			m.Nodes, err = strconv.Atoi(val)
		case "cores":
			m.Cores, err = strconv.Atoi(val)
		case "submit":
			m.Submit, err = strconv.ParseInt(val, 10, 64)
		case "start":
			m.Start, err = strconv.ParseInt(val, 10, 64)
		case "exit":
			m.ExitCode, err = strconv.Atoi(val)
		default:
			return nil, fmt.Errorf("ingest: meta line %d: unknown key %q", ln+1, key)
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: meta line %d: bad %s: %v", ln+1, key, err)
		}
	}
	if m.JobID == "" {
		return nil, fmt.Errorf("ingest: meta without job id")
	}
	if m.Nodes <= 0 {
		return nil, fmt.Errorf("ingest: meta for job %q with non-positive node count %d", m.JobID, m.Nodes)
	}
	return m, nil
}
