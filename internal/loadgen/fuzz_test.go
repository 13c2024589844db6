package loadgen

import (
	"strings"
	"testing"
)

// FuzzLoadConfig drives the supremm-load spec parser with arbitrary
// input. Properties: the parser never panics; any accepted config
// passes Validate; and the canonical render re-parses to the identical
// config with a stable render (parse -> Spec -> parse is a fixed
// point). This is the same shape as the repo's other codec fuzzers:
// decode errors are fine, acceptance must be self-consistent.
func FuzzLoadConfig(f *testing.F) {
	f.Add("url=http://127.0.0.1:8080,rps=200,dur=30s")
	f.Add("url=http://127.0.0.1:8080,rps=200,dur=30s,ramp=5s,mix=0.25,batch=64,threshold=0.8,seed=7,timeout=2s,inflight=128")
	f.Add("url=http://h:1 rps=0.5\tdur=1500ms")
	f.Add("url=https://example.com,rps=1e3,dur=1m,ramp=1m")
	f.Add("rps=100,dur=5s")
	f.Add("url=http://h:1,rps=NaN,dur=5s")
	f.Add("url=http://h:1,rps=1,dur=5s,rps=2")
	f.Add("garbage")
	f.Add("")
	f.Add("url=http://h:1,rps=1,dur=5s,mix=0x1p-2")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a config failing Validate: %v", spec, verr)
		}
		canon := cfg.Spec()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if back != cfg {
			t.Fatalf("round trip diverged for %q:\n cfg:  %+v\n back: %+v", spec, cfg, back)
		}
		if back.Spec() != canon {
			t.Fatalf("canonical render unstable for %q: %q vs %q", spec, canon, back.Spec())
		}
		if strings.TrimSpace(canon) == "" {
			t.Fatalf("accepted config rendered an empty spec from %q", spec)
		}
	})
}

// FuzzIngestLoadConfig holds the ingest firehose spec to the same
// properties as FuzzLoadConfig: never panic, accept only configs that
// pass Validate, and render a canonical form that is a parse fixed
// point.
func FuzzIngestLoadConfig(f *testing.F) {
	f.Add("url=http://127.0.0.1:8080,addr=127.0.0.1:9301")
	f.Add("url=http://127.0.0.1:8080,addr=127.0.0.1:9301,jobs=64,conns=8,hosts=2,wall=1e3,dur=10s,seed=7")
	f.Add("url=http://127.0.0.1:8080,addr=127.0.0.1:9301,chunk=16")
	f.Add("url=https://h:2 addr=h:1 jobs=1\tdur=1500ms")
	f.Add("addr=h:1")
	f.Add("url=http://h:2,jobs=10")
	f.Add("url=http://h:2,addr=h:1,wall=NaN")
	f.Add("url=http://h:2,addr=h:1,jobs=1,jobs=2")
	f.Add("garbage")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseIngestSpec(spec)
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("ParseIngestSpec(%q) accepted a config failing Validate: %v", spec, verr)
		}
		canon := cfg.IngestSpec()
		back, err := ParseIngestSpec(canon)
		if err != nil {
			t.Fatalf("canonical spec %q (from %q) does not re-parse: %v", canon, spec, err)
		}
		if back != cfg {
			t.Fatalf("round trip diverged for %q:\n cfg:  %+v\n back: %+v", spec, cfg, back)
		}
		if back.IngestSpec() != canon {
			t.Fatalf("canonical render unstable for %q: %q vs %q", spec, canon, back.IngestSpec())
		}
	})
}
