package cell

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"lava/internal/cluster"
	"lava/internal/trace"
)

// RouterKinds lists the built-in router ids.
func RouterKinds() []string { return []string{"round-robin", "least-utilized", "feature-hash"} }

// Ledger is the routing state of a federation and its only routing
// implementation: the discipline, the round-robin cursor, the routable mask,
// per-cell commitments and the VM→cell index. Shard walks a trace's event
// stream through it offline; the serving fleet (internal/serve's topology)
// walks the live request stream through the very same methods, wrapping them
// with admission, retirement and cell growth. Every decision is a pure
// function of the events fed so far, so a replay routes identically offline
// and online, at any worker count.
//
// A Ledger is not synchronized; its owner serializes access.
type Ledger struct {
	Kind     string // one of RouterKinds
	Hosts    []int  // per-cell host count: rollup weight and least-utilized capacity (0: retired)
	Routable []bool // cell accepts new placements

	rr        int     // round-robin cursor
	committed []int64 // per-cell committed CPU-milli of the VMs routed there and not yet exited
	vms       map[cluster.VMID]routed
}

// routed is one live routing decision: where the VM went and what it
// committed there.
type routed struct {
	cell int
	cpu  int64
}

// NewLedger builds the ledger of a federation whose cells have the given
// host counts (use SplitHosts for an even split), every cell routable.
func NewLedger(kind string, hosts []int) (*Ledger, error) {
	if !slices.Contains(RouterKinds(), kind) {
		return nil, fmt.Errorf("cell: unknown router %q (have %s)", kind, strings.Join(RouterKinds(), "|"))
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("cell: no cells")
	}
	l := &Ledger{Kind: kind, vms: make(map[cluster.VMID]routed)}
	for _, h := range hosts {
		l.AddCell(h)
	}
	return l, nil
}

// AddCell appends a routable cell of the given size and returns its index.
func (l *Ledger) AddCell(hosts int) int {
	l.Hosts = append(l.Hosts, hosts)
	l.Routable = append(l.Routable, true)
	l.committed = append(l.committed, 0)
	return len(l.Hosts) - 1
}

// Route picks the cell for an arriving VM and records the decision; -1 means
// no cell is routable. The disciplines restrict themselves to routable cells:
//
//   - round-robin advances its cursor to the next routable cell — the classic
//     spreading baseline;
//   - feature-hash probes forward from an FNV-1a hash of the VM's feature
//     tuple modulo the cell count (affinity routing: same category/metadata/
//     zone, same cell), so an assignment depends only on (Feat, cells) and
//     the mask — untouched by routing history or by draining *other* cells;
//   - least-utilized takes the lowest committed CPU per host, ties to the
//     lowest index: an admission-time load balancer.
func (l *Ledger) Route(rec *trace.Record) int {
	n := len(l.Hosts)
	c := -1
	switch l.Kind {
	case "round-robin":
		for i := 0; i < n && c < 0; i++ {
			if cand := (l.rr + i) % n; l.Routable[cand] {
				c = cand
				l.rr = (cand + 1) % n
			}
		}
	case "feature-hash":
		h := fnv.New64a()
		h.Write([]byte(rec.Feat.String()))
		start := int(h.Sum64() % uint64(n))
		for i := 0; i < n && c < 0; i++ {
			if cand := (start + i) % n; l.Routable[cand] {
				c = cand
			}
		}
	case "least-utilized":
		for i := 0; i < n; i++ {
			if l.Routable[i] && l.Hosts[i] > 0 && (c < 0 || l.Score(i) < l.Score(c)) {
				c = i
			}
		}
	}
	if c >= 0 {
		l.vms[rec.ID] = routed{cell: c, cpu: rec.Shape.CPUMilli}
		l.committed[c] += rec.Shape.CPUMilli
	}
	return c
}

// Exit resolves which cell holds the VM and releases its commitment. ok is
// false for VMs the ledger never routed.
func (l *Ledger) Exit(id cluster.VMID) (cell int, ok bool) {
	v, ok := l.vms[id]
	if ok {
		l.committed[v.cell] -= v.cpu
		delete(l.vms, id)
	}
	return v.cell, ok
}

// Score is cell c's load: committed CPU-milli per host.
func (l *Ledger) Score(c int) float64 { return float64(l.committed[c]) / float64(l.Hosts[c]) }

// VMs lists the VMs currently routed to cell c in ascending ID order — the
// deterministic order migration plans are built in, however the ledger was
// filled.
func (l *Ledger) VMs(c int) []cluster.VMID {
	ids := make([]cluster.VMID, 0)
	for id, v := range l.vms {
		if v.cell == c {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Move repoints a routed VM at cell to and carries its commitment over.
func (l *Ledger) Move(id cluster.VMID, to int) {
	v := l.vms[id]
	l.committed[v.cell] -= v.cpu
	l.committed[to] += v.cpu
	l.vms[id] = routed{cell: to, cpu: v.cpu}
}
