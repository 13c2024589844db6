package taccstats

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/rng"
)

func spoolArchive(t *testing.T, jobID string, seed uint64) *Archive {
	t.Helper()
	a, _ := apps.ByName("NAMD")
	d := a.Sig.Draw(rng.New(seed))
	hosts := make([]string, d.Nodes)
	for i := range hosts {
		hosts[i] = cluster.Stampede().Hostname(i)
	}
	return Collect(DefaultConfig(), JobInfo{ID: jobID, Start: 1_400_000_000, Hosts: hosts}, d, rng.New(seed+1))
}

func TestSpoolRoundTrip(t *testing.T) {
	dir := t.TempDir()
	arch := spoolArchive(t, "j100", 1)
	if err := WriteSpool(dir, arch); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpool(dir, "j100")
	if err != nil {
		t.Fatal(err)
	}
	// Hosts come back lexically ordered; compare content per host.
	byHost := map[string]*NodeArchive{}
	for i := range arch.Nodes {
		byHost[arch.Nodes[i].Host] = &arch.Nodes[i]
	}
	if len(got.Nodes) != len(arch.Nodes) {
		t.Fatalf("nodes = %d, want %d", len(got.Nodes), len(arch.Nodes))
	}
	for i := range got.Nodes {
		want := byHost[got.Nodes[i].Host]
		if want == nil {
			t.Fatalf("unexpected host %s", got.Nodes[i].Host)
		}
		if len(got.Nodes[i].Samples) != len(want.Samples) {
			t.Fatalf("host %s sample counts differ", got.Nodes[i].Host)
		}
		for j := range want.Samples {
			ws, gs := want.Samples[j], got.Nodes[i].Samples[j]
			if ws.Time != gs.Time || ws.Marker != gs.Marker {
				t.Fatal("sample header mismatch")
			}
			for _, rec := range ws.Records {
				grec := find(&gs, rec.Device)
				if grec == nil || !reflect.DeepEqual(grec.Values, rec.Values) {
					t.Fatalf("device %s mismatch", rec.Device)
				}
			}
		}
	}
}

func TestSpoolCompressionActuallyShrinks(t *testing.T) {
	dir := t.TempDir()
	arch := spoolArchive(t, "j101", 2)
	if err := WriteSpool(dir, arch); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := arch.Encode(&raw); err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	err := filepath.Walk(filepath.Join(dir, "j101"), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if onDisk >= int64(raw.Len()) {
		t.Errorf("spool %d bytes not smaller than raw %d", onDisk, raw.Len())
	}
}

func TestSpoolListAndRemove(t *testing.T) {
	dir := t.TempDir()
	for i, id := range []string{"j3", "j1", "j2"} {
		if err := WriteSpool(dir, spoolArchive(t, id, uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := ListSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, []string{"j1", "j2", "j3"}) {
		t.Fatalf("jobs = %v", jobs)
	}
	// A job removed from the spool by hand drops out of the listing.
	if err := os.RemoveAll(filepath.Join(dir, "j2")); err != nil {
		t.Fatal(err)
	}
	jobs, _ = ListSpool(dir)
	if !reflect.DeepEqual(jobs, []string{"j1", "j3"}) {
		t.Fatalf("after remove: %v", jobs)
	}
}

func TestSpoolErrors(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSpool(dir, &Archive{}); err == nil {
		t.Error("missing job id not rejected")
	}
	if _, err := ReadSpool(dir, "nope"); err == nil {
		t.Error("missing job not rejected")
	}
	// Empty job dir (no host files).
	os.MkdirAll(filepath.Join(dir, "empty"), 0o755)
	if _, err := ReadSpool(dir, "empty"); err == nil {
		t.Error("empty job dir not rejected")
	}
	// Corrupt gzip.
	os.MkdirAll(filepath.Join(dir, "bad"), 0o755)
	os.WriteFile(filepath.Join(dir, "bad", "c0"+archiveExt), []byte("not gzip"), 0o644)
	if _, err := ReadSpool(dir, "bad"); err == nil {
		t.Error("corrupt archive not rejected")
	}
}
