// Package kvspec is the one codec for the repo's k=v spec strings: the
// canonical wire form of loadgen.Config, loadgen.IngestConfig and
// lifecycle.Config ("window=256,bins=10,auto=true"). A config declares a
// table of fields -- key plus a typed pointer into itself -- and both
// directions derive from that table, so a new knob is one table row and
// parse and render cannot drift apart. resilience.ParseFaults keeps its
// own parser: site=kind:rate[:latency] is a different value language.
package kvspec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Field binds one spec key to the config field it reads and renders. Ptr
// must be a *string, *int, *uint64, *float64, *bool or *time.Duration.
type Field struct {
	Key string
	Ptr any
}

// Table is one config's grammar. Prefix and Noun only shape error
// strings ("<Prefix>: unknown <Noun> key ..."), so each owning package
// keeps the messages its CLI already prints.
type Table struct {
	Prefix string
	Noun   string
	Fields []Field
}

// Parse reads comma- or whitespace-separated key=value pairs into the
// table's fields and reports which keys were present; absent keys keep
// whatever the caller preloaded (the defaults). It rejects malformed
// entries, duplicate or unknown keys and mistyped values; range
// validation is the caller's job.
func (t Table) Parse(s string) (seen map[string]bool, err error) {
	byKey := make(map[string]any, len(t.Fields))
	for _, f := range t.Fields {
		byKey[f.Key] = f.Ptr
	}
	seen = map[string]bool{}
	for _, entry := range strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\n'
	}) {
		key, val, ok := strings.Cut(entry, "=")
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("%s: spec entry %q is not key=value", t.Prefix, entry)
		}
		if seen[key] {
			return nil, fmt.Errorf("%s: spec key %q given twice", t.Prefix, key)
		}
		seen[key] = true
		ptr, known := byKey[key]
		if !known {
			return nil, fmt.Errorf("%s: unknown %s key %q", t.Prefix, t.Noun, key)
		}
		if err := set(ptr, val); err != nil {
			return nil, fmt.Errorf("%s: bad %s %q: %v", t.Prefix, key, val, err)
		}
	}
	return seen, nil
}

// Render is the canonical form: every field, keys sorted, floats in
// shortest round-trip form, durations in Go syntax. Parse(Render()) is a
// fixed point.
func (t Table) Render() string {
	fields := append([]Field(nil), t.Fields...)
	sort.Slice(fields, func(i, j int) bool { return fields[i].Key < fields[j].Key })
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = f.Key + "=" + format(f.Ptr)
	}
	return strings.Join(parts, ",")
}

func set(ptr any, val string) (err error) {
	switch p := ptr.(type) {
	case *string:
		*p = val
	case *int:
		*p, err = strconv.Atoi(val)
	case *uint64:
		*p, err = strconv.ParseUint(val, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(val, 64)
	case *bool:
		if *p, err = strconv.ParseBool(val); err != nil {
			err = fmt.Errorf("not a bool")
		}
	case *time.Duration:
		*p, err = time.ParseDuration(val)
	default:
		panic(fmt.Sprintf("kvspec: unsupported field type %T", ptr))
	}
	return err
}

func format(ptr any) string {
	switch p := ptr.(type) {
	case *string:
		return *p
	case *int:
		return strconv.Itoa(*p)
	case *uint64:
		return strconv.FormatUint(*p, 10)
	case *float64:
		return strconv.FormatFloat(*p, 'g', -1, 64)
	case *bool:
		return strconv.FormatBool(*p)
	case *time.Duration:
		return p.String()
	default:
		panic(fmt.Sprintf("kvspec: unsupported field type %T", ptr))
	}
}
