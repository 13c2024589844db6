package main

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"
)

func TestCheckReplyCatchesOneFlippedByte(t *testing.T) {
	reply := []byte(`{"label":"Molecular Dynamics","probability":0.93,"classified":true,"defaulted":[]}` + "\n")
	want := fnv64(reply)
	if !checkReply(http.StatusOK, reply, want) {
		t.Fatal("the verified reply itself was rejected")
	}
	for i := range reply {
		bad := append([]byte(nil), reply...)
		bad[i] ^= 1
		if checkReply(http.StatusOK, bad, want) {
			t.Fatalf("flipping a bit of byte %d went unnoticed", i)
		}
	}
	if checkReply(http.StatusGatewayTimeout, reply, want) {
		t.Error("a 504 carrying the right bytes must still fail")
	}
}

func TestEqualResultsIsBitExact(t *testing.T) {
	direct := classifyResult{Label: "a", Probability: 0.75, Classified: true}
	want := func(int) classifyResult { return direct }
	served := []classifyResult{{Label: "a", Probability: 0.75, Classified: true, Defaulted: []string{}}}
	if err := equalResults(served, []int{0}, want); err != nil {
		t.Fatalf("equal results rejected: %v", err)
	}
	for name, mutate := range map[string]func(*classifyResult){
		"label":       func(r *classifyResult) { r.Label = "b" },
		"classified":  func(r *classifyResult) { r.Classified = false },
		"probability": func(r *classifyResult) { r.Probability = math.Nextafter(0.75, 1) },
		"defaulted":   func(r *classifyResult) { r.Defaulted = []string{"MEM_USED"} },
	} {
		bad := []classifyResult{served[0]}
		mutate(&bad[0])
		if equalResults(bad, []int{0}, want) == nil {
			t.Errorf("a differing %s went unnoticed", name)
		}
	}
	if equalResults(nil, []int{0}, want) == nil {
		t.Error("a missing row went unnoticed")
	}
}

// A failed oracle must reach the exit code: result.problem clears
// Correct, and run() exits 1 on an incorrect result.
func TestProblemsMakeTheRunIncorrect(t *testing.T) {
	ok := func() *result {
		r := &result{Correct: true, Attempted: 10, Metrics: map[string]value{}}
		for _, d := range endToEnd {
			r.set(d.name, 1, 0)
		}
		return r
	}
	r := ok()
	if r.finish(); !r.Correct {
		t.Fatalf("a clean result was marked incorrect: %v", r.Problems)
	}
	r = ok()
	r.Failed = 1
	if r.finish(); r.Correct {
		t.Error("a failed operation left the run correct")
	}
	r = ok()
	delete(r.Metrics, "setup_s")
	if r.finish(); r.Correct {
		t.Error("a missing end-to-end metric left the run correct")
	}
	r = ok()
	r.set("setup_s", 2, 0)
	if r.Correct {
		t.Error("emitting a metric twice left the run correct")
	}
	r = ok()
	r.set("made_up", 1, 0)
	if r.finish(); r.Correct {
		t.Error("an undeclared metric left the run correct")
	}
}

// The warehouse oracle: a real pass through the real server must equal
// the serial reference, and perturbing one record of either side, or
// losing one, must not.
func TestWarehouseOracle(t *testing.T) {
	p := testScale().ingest
	in, err := genIngest(11, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bootIngest(in, p)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for pass := 0; pass < 2; pass++ {
		if err := st.verifiedPass(ctx); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	ref, err := st.reference()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() != 2*p.jobs {
		t.Fatalf("reference holds %d jobs, want %d", ref.Len(), 2*p.jobs)
	}

	snap := st.wh.Snapshot()
	orig := snap.Records[5]
	perturbed := *orig
	perturbed.WallSeconds += 1
	snap.Records[5] = &perturbed
	if checkWarehouse(snap, ref) == nil {
		t.Error("one second added to one warehouse record went unnoticed")
	}
	perturbed = *orig
	perturbed.AppLabel += "x"
	if checkWarehouse(snap, ref) == nil {
		t.Error("one relabelled warehouse record went unnoticed")
	}
	snap.Records[5] = orig
	if err := checkWarehouse(snap, ref); err != nil {
		t.Fatalf("restored snapshot rejected: %v", err)
	}
	snap.Records = snap.Records[1:]
	if checkWarehouse(snap, ref) == nil {
		t.Error("one lost warehouse record went unnoticed")
	}

	// And the ledger oracle: a pass the books do not expect.
	st.passes++
	if st.checkLedger() == nil {
		t.Error("a pass with no records behind it went unnoticed")
	}
	st.passes--
}
