package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/parallel"
)

// Driver runs one experiment against an environment.
type Driver func(*Env) (*Result, error)

// Registry maps experiment ids to drivers, in paper order.
var Registry = []struct {
	ID     string
	Driver Driver
}{
	{"e1", ExpE1Efficiency},
	{"e2", ExpE2ExitCode},
	{"table2", Table2},
	{"fig1", Figure1},
	{"fig2", Figure2},
	{"fig3", Figure3},
	{"table3", Table3},
	{"fig4", Figure4},
	{"fig5", Figure5},
	{"fig6", Figure6},
	{"x1", ExpX1TimeDependent},
	{"x2", ExpX2KernelRegression},
	{"x3", ExpX3CrossPlatform},
	{"x4", ExpX4Unsupervised},
}

// ByID returns the driver for an experiment id.
func ByID(id string) (Driver, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Driver, true
		}
	}
	return nil, false
}

// IDs returns all experiment ids in paper order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// ErrUnknownID is wrapped by RunSelected's error for an id that is not
// in the Registry; the message lists the valid ones.
var ErrUnknownID = errors.New("unknown experiment")

// RunSelected executes the given experiment ids concurrently on at most
// workers goroutines (<= 0 means GOMAXPROCS; 1 runs serially) and
// returns the results in input order, each stamped with its wall time.
// Every driver derives its datasets and models from the Env's seed —
// shared lazily-built state is built once — so each experiment's result
// is bit-identical whether it runs alone, serially, or alongside the
// rest of the suite. An unknown id fails before any work starts; after
// that the smallest-index failing experiment's error is returned.
func RunSelected(e *Env, ids []string, workers int) ([]*Result, error) {
	drivers := make([]Driver, len(ids))
	for i, id := range ids {
		d, ok := ByID(id)
		if !ok {
			return nil, fmt.Errorf("%w %q (valid: %s)", ErrUnknownID, id, strings.Join(IDs(), ", "))
		}
		drivers[i] = d
	}
	return parallel.Map(workers, len(ids), func(i int) (*Result, error) {
		sp := e.Cfg.Obs.Span.Child("exp." + ids[i])
		defer sp.End()
		start := time.Now()
		res, err := drivers[i](e)
		if err != nil {
			return nil, fmt.Errorf("experiment %s failed: %w", ids[i], err)
		}
		res.Wall = time.Since(start)
		e.Cfg.Obs.Log.Debug("experiment done", "id", ids[i], "wall", res.Wall)
		return res, nil
	})
}
