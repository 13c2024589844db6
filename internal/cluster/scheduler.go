package cluster

import (
	"container/heap"
	"fmt"
	"sort"
)

// SchedRequest is one job submitted to the batch scheduler.
type SchedRequest struct {
	ID     string
	Submit int64 // unix seconds
	Nodes  int
	// EstWall is the user's requested wall limit (what backfill reasons
	// about); ActualWall is how long the job really runs.
	EstWall    int64
	ActualWall int64
}

// SchedResult is the scheduler's placement decision for one job.
type SchedResult struct {
	ID    string
	Start int64
	End   int64
	Nodes []int // machine node indices allocated
}

// Scheduler simulates a batch scheduler over a machine's node pool:
// first-come-first-served order with optional EASY backfill (a later job
// may jump the queue if it fits in currently idle nodes without delaying
// the reserved start of the queue head).
type Scheduler struct {
	machine  Machine
	backfill bool
}

// NewScheduler creates a scheduler for the machine.
func NewScheduler(m Machine, backfill bool) *Scheduler {
	return &Scheduler{machine: m, backfill: backfill}
}

// runningJob tracks an executing job for the event queue.
type runningJob struct {
	end   int64
	nodes []int
}

// endHeap orders running jobs by completion time.
type endHeap []runningJob

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(i, j int) bool { return h[i].end < h[j].end }
func (h endHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)        { *h = append(*h, x.(runningJob)) }
func (h *endHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Schedule places every request and returns results in input order. It
// is deterministic: ties in submit time break by input order.
func (s *Scheduler) Schedule(reqs []SchedRequest) ([]SchedResult, error) {
	total := s.machine.TotalNodes()
	for _, r := range reqs {
		if r.Nodes <= 0 || r.Nodes > total {
			return nil, fmt.Errorf("cluster: job %s requests %d nodes on a %d-node machine", r.ID, r.Nodes, total)
		}
		if r.ActualWall <= 0 {
			return nil, fmt.Errorf("cluster: job %s has non-positive wall time", r.ID)
		}
	}

	// Sort by submit time, stable to preserve input order on ties.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].Submit < reqs[order[b]].Submit })

	free := make([]int, 0, total)
	for i := total - 1; i >= 0; i-- {
		free = append(free, i) // pop from the end yields ascending indices
	}
	running := &endHeap{}
	results := make([]SchedResult, len(reqs))

	queue := []int{} // indices into reqs, FCFS order
	next := 0        // next arrival in order
	now := int64(0)
	if len(order) > 0 {
		now = reqs[order[0]].Submit
	}

	release := func(t int64) {
		for running.Len() > 0 && (*running)[0].end <= t {
			j := heap.Pop(running).(runningJob)
			free = append(free, j.nodes...)
		}
	}
	start := func(idx int, t int64) {
		req := reqs[idx]
		nodes := make([]int, req.Nodes)
		copy(nodes, free[len(free)-req.Nodes:])
		free = free[:len(free)-req.Nodes]
		end := t + req.ActualWall
		heap.Push(running, runningJob{end: end, nodes: nodes})
		results[idx] = SchedResult{ID: req.ID, Start: t, End: end, Nodes: nodes}
	}

	for next < len(order) || len(queue) > 0 {
		// Admit all arrivals up to the current time.
		for next < len(order) && reqs[order[next]].Submit <= now {
			queue = append(queue, order[next])
			next++
		}
		release(now)

		// Start queue head(s) FCFS.
		progressed := true
		for progressed {
			progressed = false
			for len(queue) > 0 && reqs[queue[0]].Nodes <= len(free) {
				start(queue[0], now)
				queue = queue[1:]
				progressed = true
			}
			if s.backfill && len(queue) > 1 {
				if s.tryBackfill(reqs, &queue, &free, running, results, now) {
					progressed = true
				}
			}
		}

		// Advance time to the next event: either an arrival or a
		// completion that frees nodes.
		var nextEvent int64
		switch {
		case running.Len() > 0 && next < len(order):
			nextEvent = min64((*running)[0].end, reqs[order[next]].Submit)
		case running.Len() > 0:
			nextEvent = (*running)[0].end
		case next < len(order):
			nextEvent = reqs[order[next]].Submit
		default:
			// Queue non-empty but nothing running and no arrivals: the
			// head must fit (validated above), so this cannot happen.
			return nil, fmt.Errorf("cluster: scheduler deadlock with %d queued jobs", len(queue))
		}
		if nextEvent <= now {
			nextEvent = now + 1
		}
		now = nextEvent
	}
	// Drain remaining running jobs implicitly; results are complete.
	return results, nil
}

// tryBackfill implements EASY: compute the queue head's reservation (the
// earliest time enough nodes will be free), then start any later queued
// job that fits idle nodes now AND whose estimated completion does not
// push past the reservation (or which uses only nodes beyond the head's
// requirement). Returns true if any job was started.
func (s *Scheduler) tryBackfill(reqs []SchedRequest, queue *[]int, free *[]int, running *endHeap, results []SchedResult, now int64) bool {
	head := reqs[(*queue)[0]]
	// Shadow time: walk completions until the head fits.
	avail := len(*free)
	ends := append(endHeap(nil), (*running)...)
	sort.Slice(ends, func(i, j int) bool { return ends[i].end < ends[j].end })
	shadow := now
	extra := avail - head.Nodes // nodes spare at shadow time
	for _, j := range ends {
		if avail >= head.Nodes {
			break
		}
		avail += len(j.nodes)
		shadow = j.end
		extra = avail - head.Nodes
	}
	if extra < 0 {
		extra = 0
	}

	started := false
	q := (*queue)[1:]
	for i := 0; i < len(q); i++ {
		idx := q[i]
		req := reqs[idx]
		if req.Nodes > len(*free) {
			continue
		}
		est := req.EstWall
		if est <= 0 {
			est = req.ActualWall
		}
		fitsBeforeShadow := now+est <= shadow
		fitsBesideHead := req.Nodes <= extra
		if !fitsBeforeShadow && !fitsBesideHead {
			continue
		}
		// Start it.
		nodes := make([]int, req.Nodes)
		copy(nodes, (*free)[len(*free)-req.Nodes:])
		*free = (*free)[:len(*free)-req.Nodes]
		end := now + req.ActualWall
		heap.Push(running, runningJob{end: end, nodes: nodes})
		results[idx] = SchedResult{ID: req.ID, Start: now, End: end, Nodes: nodes}
		if fitsBesideHead {
			extra -= req.Nodes
		}
		q = append(q[:i], q[i+1:]...)
		i--
		started = true
	}
	*queue = append((*queue)[:1], q...)
	return started
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
