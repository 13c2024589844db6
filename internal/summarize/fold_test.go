package summarize

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/taccstats"
)

// sameSummary fails t unless two summarize outcomes are equal, errors by
// message and every float by its bits.
func sameSummary(t *testing.T, got *Summary, gerr error, want *Summary, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("error: fold %v, archive %v", gerr, werr)
	}
	if gerr != nil {
		return
	}
	if got.JobID != want.JobID || got.Nodes != want.Nodes || !reflect.DeepEqual(got.DroppedNodes, want.DroppedNodes) {
		t.Fatalf("fold %s/%d nodes dropped %v, archive %s/%d dropped %v",
			got.JobID, got.Nodes, got.DroppedNodes, want.JobID, want.Nodes, want.DroppedNodes)
	}
	floats := func(s *Summary) []float64 {
		out := []float64{s.WallSeconds, s.Catastrophe, s.CPUUserImbalance}
		out = append(out, s.Means[:]...)
		out = append(out, s.COVs[:]...)
		for i := range s.SegmentMeans {
			out = append(out, s.SegmentMeans[i][:]...)
		}
		return out
	}
	g, w := floats(got), floats(want)
	if len(g) != len(w) {
		t.Fatalf("fold has %d values, archive %d", len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("value %d: fold %v, archive %v", i, g[i], w[i])
		}
	}
}

// find returns the first record of the named device within a sample,
// or nil.
func find(s *taccstats.Sample, device string) *taccstats.Record {
	for i := range s.Records {
		if s.Records[i].Device == device {
			return &s.Records[i]
		}
	}
	return nil
}

// Archive damage the fold must report exactly as Summarize does.
const (
	damageNone = iota
	damageOneSample
	damageStalledClock
	damageMissingDevice
	damageBackwardsCounter
	numDamage
)

// damage applies one kind of damage to node 0 at sample k (k ≥ 1).
func damage(arch *taccstats.Archive, kind, k int) {
	n := &arch.Nodes[0]
	if k >= len(n.Samples) {
		k = len(n.Samples) - 1
	}
	if k < 1 {
		return
	}
	s := &n.Samples[k]
	switch kind {
	case damageOneSample:
		n.Samples = n.Samples[:1]
	case damageStalledClock:
		s.Time = n.Samples[k-1].Time
	case damageMissingDevice:
		var kept []taccstats.Record
		for _, r := range s.Records {
			if r.Device != taccstats.DevIB {
				kept = append(kept, r)
			}
		}
		s.Records = kept
	case damageBackwardsCounter:
		rec := find(s, taccstats.DevMem)
		rec.Values = append([]uint64(nil), rec.Values...)
		rec.Values[1] = 0
	}
}

// FuzzNodeFold feeds an archive's samples through Node.Add in arbitrary
// runs, interleaving nodes the way streamed chunks arrive, and holds the
// combined folds to Summarize of the whole archive, bit for bit, errors
// included.
func FuzzNodeFold(f *testing.F) {
	for kind := 0; kind < numDamage; kind++ {
		f.Add(uint64(kind), []byte{1, 3, 2}, uint8(kind), false)
		f.Add(uint64(kind+7), []byte{8}, uint8(kind), true)
	}
	f.Fuzz(func(t *testing.T, seed uint64, runs []byte, kind uint8, skipBad bool) {
		wall := 600 * float64(1+seed%12)
		nodes := float64(1 + seed%4)
		arch, _ := collectFor(t, "NAMD", seed, func(s *apps.Signature) {
			s.WallLogMu, s.WallLogSigma = math.Log(wall), 0.001
			s.NodesLogMu, s.NodesLogSigma = math.Log(nodes), 0.001
		})
		damage(arch, int(kind)%numDamage, 1+int(seed>>8)%8)
		want, werr := Summarize(arch, taccstats.DefaultConfig(), Options{SkipBadNodes: skipBad})

		if len(runs) == 0 {
			runs = []byte{1}
		}
		folds := make([]*Node, len(arch.Nodes))
		offs := make([]int, len(arch.Nodes))
		for i := range folds {
			folds[i] = &Node{Host: arch.Nodes[i].Host}
		}
		for r, more := 0, true; more; {
			more = false
			for i := range arch.Nodes {
				samples := arch.Nodes[i].Samples
				end := min(offs[i]+1+int(runs[r%len(runs)])%8, len(samples))
				r++
				for ; offs[i] < end; offs[i]++ {
					folds[i].Add(&samples[offs[i]])
				}
				more = more || offs[i] < len(samples)
			}
		}
		for i, nd := range folds {
			if nd.Len() != len(arch.Nodes[i].Samples) {
				t.Fatalf("node %d: Len %d, want %d", i, nd.Len(), len(arch.Nodes[i].Samples))
			}
		}
		got, gerr := Nodes(arch.JobID, folds, skipBad)
		sameSummary(t, got, gerr, want, werr)
	})
}

// TestNodeFoldPrefixes: the combined folds of each node's first p
// samples equal Summarize of the archive truncated at sample p, for
// every p, so a running job's summary so far needs no second code path.
func TestNodeFoldPrefixes(t *testing.T) {
	arch, _ := collectFor(t, "NAMD", 13, func(s *apps.Signature) {
		s.CatastropheProb = 1
		s.WallLogMu, s.WallLogSigma = math.Log(3*3600), 0.01
		s.NodesLogMu, s.NodesLogSigma = math.Log(3), 0.01
	})
	damage(arch, damageBackwardsCounter, 9)
	folds := make([]*Node, len(arch.Nodes))
	longest := 0
	for i := range folds {
		folds[i] = &Node{Host: arch.Nodes[i].Host}
		longest = max(longest, len(arch.Nodes[i].Samples))
	}
	for p := 1; p <= longest; p++ {
		trunc := &taccstats.Archive{JobID: arch.JobID}
		for i, n := range arch.Nodes {
			if p <= len(n.Samples) {
				folds[i].Add(&n.Samples[p-1])
			}
			n.Samples = n.Samples[:min(p, len(n.Samples))]
			trunc.Nodes = append(trunc.Nodes, n)
		}
		for _, skipBad := range []bool{false, true} {
			want, werr := Summarize(trunc, taccstats.DefaultConfig(), Options{SkipBadNodes: skipBad})
			got, gerr := Nodes(arch.JobID, folds, skipBad)
			sameSummary(t, got, gerr, want, werr)
		}
	}
}

// TestBackwardsCounterIsIntervalError: only the 48-bit PMCs wrap within
// a job. A 64-bit kernel counter that reads lower than before (here
// mem[1], the memory-bandwidth counter) is a damaged interval, not a
// 1.8e19 delta.
func TestBackwardsCounterIsIntervalError(t *testing.T) {
	arch, _ := collectFor(t, "WRF", 42, nil)
	damage(arch, damageBackwardsCounter, 3)
	_, err := Summarize(arch, taccstats.DefaultConfig(), Options{})
	want := "node " + arch.Nodes[0].Host + ": counter mem[1] went backwards"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if len(arch.Nodes) < 2 {
		return
	}
	s, err := Summarize(arch, taccstats.DefaultConfig(), Options{SkipBadNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.DroppedNodes) != 1 || s.DroppedNodes[0] != arch.Nodes[0].Host {
		t.Fatalf("dropped = %v, want [%s]", s.DroppedNodes, arch.Nodes[0].Host)
	}
	if s.Means[apps.MemBW] > 1e12 {
		t.Fatalf("MemBW mean %v carries a wrapped delta", s.Means[apps.MemBW])
	}
}

// TestNodeHoldsNoSample: a fold keeps nothing of the samples it is
// given. Each sample is folded from one reused copy that is then
// overwritten in place, as a caller that decodes into reused arrays
// overwrites it, and every prefix must still summarize exactly as a
// fold over untouched samples does.
func TestNodeHoldsNoSample(t *testing.T) {
	arch, _ := collectFor(t, "WRF", 7, func(s *apps.Signature) {
		s.WallLogMu, s.WallLogSigma = math.Log(3*3600), 0.01
	})
	n := &arch.Nodes[0]
	want, got := &Node{Host: n.Host}, &Node{Host: n.Host}
	var reused taccstats.Sample
	for i := range n.Samples {
		s := &n.Samples[i]
		reused.Time, reused.Marker = s.Time, s.Marker
		reused.Records = append(reused.Records[:0], s.Records...)
		for j := range reused.Records {
			reused.Records[j].Values = append([]uint64(nil), s.Records[j].Values...)
		}
		want.Add(s)
		got.Add(&reused)
		for j := range reused.Records {
			for k := range reused.Records[j].Values {
				reused.Records[j].Values[k] = math.MaxUint64
			}
		}
		g, gerr := Nodes(arch.JobID, []*Node{got}, false)
		w, werr := Nodes(arch.JobID, []*Node{want}, false)
		sameSummary(t, g, gerr, w, werr)
	}
	if want.Len() < 3 {
		t.Fatalf("only %d samples: no interval follows an overwritten one", want.Len())
	}
}
