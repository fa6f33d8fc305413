package serve

import (
	"blackswan/internal/bgp"
	"blackswan/internal/core"
)

// ProfileNode is the JSON rendering of one operator's EXPLAIN ANALYZE
// record: the operator label (constants resolved through the dictionary the
// plan was compiled against), measured actuals, and the planner's
// cardinality estimate. Inclusive figures cover the node's whole subtree;
// the self figures are the node's own share. A plan runs on one goroutine,
// so the simulated columns are exact unless concurrent queries share the
// engine's store — see core.OpProfile.
type ProfileNode struct {
	Op         string         `json:"op"`
	Note       string         `json:"note,omitempty"`
	Rows       int            `json:"rows"`
	Batches    int            `json:"batches"`
	EstRows    *float64       `json:"estRows,omitempty"`
	SimCPUNs   int64          `json:"simCpuNs"`
	SimIONs    int64          `json:"simIoNs"`
	ReadBytes  int64          `json:"readBytes"`
	HostNs     int64          `json:"hostNs"`
	SelfCPUNs  int64          `json:"selfSimCpuNs"`
	SelfIONs   int64          `json:"selfSimIoNs"`
	SelfBytes  int64          `json:"selfReadBytes"`
	SelfHostNs int64          `json:"selfHostNs"`
	PeakBytes  int64          `json:"peakBytes"`
	Children   []*ProfileNode `json:"children,omitempty"`
}

// profileJSON converts a core profile tree to its JSON form, labelling
// each operator from the plan's labels.
func profileJSON(p *core.OpProfile, plan *bgp.Compiled) *ProfileNode {
	if p == nil {
		return nil
	}
	return profileNode(p, plan.Labels())
}

func profileNode(p *core.OpProfile, labels []string) *ProfileNode {
	n := &ProfileNode{
		Op:         labels[p.ID],
		Note:       p.Note,
		Rows:       p.Rows,
		Batches:    p.Batches,
		SimCPUNs:   p.CPU.Nanoseconds(),
		SimIONs:    p.IO.Nanoseconds(),
		ReadBytes:  p.IOBytes,
		HostNs:     p.Host.Nanoseconds(),
		SelfCPUNs:  p.SelfCPU.Nanoseconds(),
		SelfIONs:   p.SelfIO.Nanoseconds(),
		SelfBytes:  p.SelfIOBytes,
		SelfHostNs: p.SelfHost.Nanoseconds(),
		PeakBytes:  p.PeakBytes,
	}
	if p.EstRows >= 0 {
		est := p.EstRows
		n.EstRows = &est
	}
	for _, c := range p.Children {
		n.Children = append(n.Children, profileNode(c, labels))
	}
	return n
}
