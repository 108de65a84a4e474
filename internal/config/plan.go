package config

import (
	"encoding/json"
	"fmt"
	"io"

	"vodcluster/internal/core"
)

// Plan is a persisted replication+placement decision: the scenario it was
// computed for and the resulting layout. vodplace writes plans; vodsim can
// replay them, so an operator can audit or pin a layout instead of
// recomputing it every run.
type Plan struct {
	// Version guards the file format.
	Version int `json:"version"`
	// Scenario reproduces the problem the plan was computed for.
	Scenario Scenario `json:"scenario"`
	// Replicas[i] is r_i and Servers[i] lists the servers holding video i,
	// as core.Layout's Servers does; Layout refuses a file where the two
	// disagree.
	Replicas []int   `json:"replicas"`
	Servers  [][]int `json:"servers"`
}

// planVersion is the current plan file version.
const planVersion = 1

// NewPlan captures a layout computed for a scenario. A plan holds servers
// only, so every copy replays at its catalog rate.
func NewPlan(s Scenario, layout *core.Layout) *Plan {
	p := &Plan{Version: planVersion, Scenario: s, Replicas: layout.ReplicaCounts()}
	p.Servers = make([][]int, len(layout.Servers))
	for i, servers := range layout.Servers {
		p.Servers[i] = append([]int(nil), servers...)
	}
	return p
}

// Layout reconstructs and validates the layout against the plan's scenario.
func (p *Plan) Layout() (*core.Problem, *core.Layout, error) {
	if p.Version != planVersion {
		return nil, nil, fmt.Errorf("config: plan version %d; this build reads %d", p.Version, planVersion)
	}
	problem, err := p.Scenario.Problem()
	if err != nil {
		return nil, nil, fmt.Errorf("config: plan scenario: %w", err)
	}
	if len(p.Replicas) != len(p.Servers) {
		return nil, nil, fmt.Errorf("config: plan lists %d replica counts for %d videos", len(p.Replicas), len(p.Servers))
	}
	layout := core.NewLayout(len(p.Servers))
	for i, servers := range p.Servers {
		if p.Replicas[i] != len(servers) {
			return nil, nil, fmt.Errorf("config: plan video %d declares %d replicas but lists %d servers", i, p.Replicas[i], len(servers))
		}
		layout.Servers[i] = append([]int(nil), servers...)
	}
	if err := layout.Validate(problem); err != nil {
		return nil, nil, fmt.Errorf("config: plan layout: %w", err)
	}
	return problem, layout, nil
}

// Save writes the plan as indented JSON.
func (p *Plan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadPlan parses a plan and validates it end to end.
func LoadPlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("config: decoding plan: %w", err)
	}
	if _, _, err := p.Layout(); err != nil {
		return nil, err
	}
	return &p, nil
}
