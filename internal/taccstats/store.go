package taccstats

import (
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The on-disk spool mirrors production TACC_Stats: one directory per job,
// one gzip-compressed archive file per host. The summarization pipeline
// scans the spool, reassembles per-job archives, and deletes or retains
// raw data by policy.

// archiveExt is the per-host archive file suffix.
const archiveExt = ".dat.gz"

// WriteSpool writes one job's raw archive under dir/<jobid>/, one
// compressed file per host.
func WriteSpool(dir string, a *Archive) error {
	if a.JobID == "" {
		return fmt.Errorf("taccstats: archive has no job id")
	}
	jobDir := filepath.Join(dir, a.JobID)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		return err
	}
	for i := range a.Nodes {
		node := &a.Nodes[i]
		if err := writeHostFile(jobDir, a.JobID, node); err != nil {
			return err
		}
	}
	return nil
}

func writeHostFile(jobDir, jobID string, node *NodeArchive) error {
	path := filepath.Join(jobDir, node.Host+archiveExt)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	single := &Archive{JobID: jobID, Nodes: []NodeArchive{*node}}
	if err := single.Encode(zw); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// ReadSpool reassembles one job's archive from dir/<jobid>/. Hosts are
// ordered lexically.
func ReadSpool(dir, jobID string) (*Archive, error) {
	jobDir := filepath.Join(dir, jobID)
	entries, err := os.ReadDir(jobDir)
	if err != nil {
		return nil, err
	}
	var hostFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), archiveExt) {
			hostFiles = append(hostFiles, e.Name())
		}
	}
	if len(hostFiles) == 0 {
		return nil, fmt.Errorf("taccstats: no host archives for job %s in %s", jobID, dir)
	}
	sort.Strings(hostFiles)

	out := &Archive{JobID: jobID}
	for _, name := range hostFiles {
		a, err := readHostFile(filepath.Join(jobDir, name))
		if err != nil {
			return nil, fmt.Errorf("taccstats: %s: %w", name, err)
		}
		if a.JobID != jobID {
			return nil, fmt.Errorf("taccstats: %s carries job %q, want %q", name, a.JobID, jobID)
		}
		out.Nodes = append(out.Nodes, a.Nodes...)
	}
	return out, nil
}

func readHostFile(path string) (*Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return Decode(zr)
}

// ListSpool returns the job ids present in a spool directory, sorted.
func ListSpool(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var jobs []string
	for _, e := range entries {
		if e.IsDir() {
			jobs = append(jobs, e.Name())
		}
	}
	sort.Strings(jobs)
	return jobs, nil
}
