package engine

import "fmt"

// WithPerRequestSteps returns cfg with every Hetis decode step forced onto
// the per-request loop, for the batched step's twin tests.
func WithPerRequestSteps(cfg Config) Config {
	cfg.perRequestSteps = true
	return cfg
}

// WithStepCheck returns cfg with every batched Hetis decode step checked
// before its advance: report receives checkAdvanceSet's verdict.
func WithStepCheck(cfg Config, report func(error)) Config {
	cfg.checkStep = func(inst *hetisInstance, advancing []*request) {
		report(checkAdvanceSet(inst, advancing))
	}
	return cfg
}

// checkAdvanceSet verifies that a batched decode step touches only the
// requests it should: every live dispatcher record and every block-manager
// entry belongs to a running request that does not finish this step (the
// advancing batch, each once), and every entry sits on a worker that holds
// some of its request's heads.
func checkAdvanceSet(inst *hetisInstance, advancing []*request) error {
	ids := make(map[int64]bool, len(advancing))
	for _, r := range advancing {
		if ids[r.wl.ID] {
			return fmt.Errorf("request %d advances twice", r.wl.ID)
		}
		ids[r.wl.ID] = true
	}
	for _, id := range inst.disp.Requests() {
		if !ids[id] {
			return fmt.Errorf("dispatcher record of request %d is not in the advancing batch", id)
		}
	}
	for w, m := range inst.kv {
		for _, id := range m.AppendRequests(nil) {
			if !ids[int64(id)] {
				return fmt.Errorf("worker %d holds blocks of request %d, which is not in the advancing batch", w, id)
			}
			if inst.disp.PlacementView(int64(id))[w] == 0 {
				return fmt.Errorf("worker %d holds blocks of request %d but none of its heads", w, id)
			}
		}
	}
	return nil
}
