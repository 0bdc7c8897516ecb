package cluster

import (
	"fmt"
	"sort"

	"lava/internal/resources"
)

// Pool is a set of homogeneous hosts plus the VM placement index. It is the
// unit of scheduling in the paper (§2.2): each VM family has distinct host
// pools and the scheduler keeps a global view of one pool.
//
// A Pool is not safe for concurrent use; see the package documentation for
// the single-writer contract and who upholds it.
type Pool struct {
	Name  string
	hosts []*Host // sorted by ID; membership changes only via AddHosts/RemoveHost
	byID  map[HostID]*Host
	vms   map[VMID]*Host  // VM -> current host
	idx   *capIndex       // free-capacity index over hosts
	subs  []*subscription // host-event subscribers (see events.go)

	// Running pool-wide aggregates, maintained O(1) per mutation so metric
	// sampling costs O(1) instead of an O(hosts) scan. All three are exact
	// integer sums, so the derived metrics are bit-identical to the scans
	// they replaced. emptyCap is the capacity summed over currently empty
	// hosts (an empty host's free vector IS its capacity).
	usedTot  resources.Vector
	capTot   resources.Vector
	emptyCap resources.Vector

	// Counters for telemetry (§7: production monitoring).
	Placements int
	Exits      int
	Migrations int
}

// NewPool builds a pool of n identical hosts with the given capacity.
func NewPool(name string, n int, capacity resources.Vector) *Pool {
	p := &Pool{
		Name: name,
		byID: make(map[HostID]*Host, n),
		vms:  make(map[VMID]*Host),
	}
	for i := 0; i < n; i++ {
		h := NewHost(HostID(i), capacity)
		p.hosts = append(p.hosts, h)
		p.byID[h.ID] = h
		p.capTot = p.capTot.Add(capacity)
		p.emptyCap = p.emptyCap.Add(capacity)
	}
	p.idx = newCapIndex(p.hosts)
	return p
}

// Hosts returns the hosts in ID order. Callers must not mutate the slice,
// and must re-read it after AddHosts/RemoveHost (membership changes may
// reallocate it).
func (p *Pool) Hosts() []*Host { return p.hosts }

// AddHosts grows the pool by n identical hosts with the given capacity and
// returns them. New hosts take IDs past the current maximum, so a pool that
// has only ever grown (or shrunk from the top via its highest IDs) keeps
// the dense 0..n-1 numbering the incremental score caches rely on. Each
// addition publishes a HostAdded event.
func (p *Pool) AddHosts(n int, capacity resources.Vector) []*Host {
	if n <= 0 {
		return nil
	}
	next := HostID(0)
	for _, h := range p.hosts {
		if h.ID >= next {
			next = h.ID + 1
		}
	}
	added := make([]*Host, 0, n)
	for i := 0; i < n; i++ {
		h := NewHost(next+HostID(i), capacity)
		p.hosts = append(p.hosts, h)
		p.byID[h.ID] = h
		added = append(added, h)
		p.capTot = p.capTot.Add(capacity)
		p.emptyCap = p.emptyCap.Add(capacity)
	}
	p.idx = newCapIndex(p.hosts)
	for _, h := range added {
		p.notify(h, HostAdded)
	}
	return added
}

// RemoveHost retires an empty host from the pool. Hosts still running VMs
// cannot be removed — migrate or exit them first. Removing any host other
// than the highest-ID one leaves the pool's IDs non-dense, which demotes
// incremental score caches to their exhaustive fallback (correct, slower).
// The removal publishes a HostRemoved event.
func (p *Pool) RemoveHost(id HostID) error {
	h := p.byID[id]
	if h == nil {
		return fmt.Errorf("pool %s: host %d not in pool", p.Name, id)
	}
	if !h.Empty() {
		return fmt.Errorf("pool %s: host %d still runs %d VMs", p.Name, id, len(h.VMs()))
	}
	for i, cur := range p.hosts {
		if cur.ID == id {
			p.hosts = append(p.hosts[:i], p.hosts[i+1:]...)
			break
		}
	}
	delete(p.byID, id)
	p.capTot = p.capTot.Sub(h.Capacity)
	p.emptyCap = p.emptyCap.Sub(h.Capacity) // removable hosts are empty
	p.idx = newCapIndex(p.hosts)
	p.notify(h, HostRemoved)
	return nil
}

// Host returns the host with the given ID, or nil.
func (p *Pool) Host(id HostID) *Host { return p.byID[id] }

// NumHosts returns the pool size.
func (p *Pool) NumHosts() int { return len(p.hosts) }

// NumVMs returns the number of currently running VMs.
func (p *Pool) NumVMs() int { return len(p.vms) }

// HostOf returns the host currently running the VM, or nil.
func (p *Pool) HostOf(id VMID) *Host { return p.vms[id] }

// AppendFeasible appends the available hosts that can fit a VM of the given
// shape to dst and returns the extended slice, in host-ID order. It is the
// indexed replacement for a full-pool Fits scan: whole blocks of hosts are
// skipped when their summary says the shape cannot fit (see capIndex).
// Callers pass a reusable buffer (dst[:0]) to avoid per-request allocation.
func (p *Pool) AppendFeasible(dst []*Host, shape resources.Vector) []*Host {
	return p.idx.appendFeasible(dst, shape)
}

// ForEachNonEmpty calls fn for every host with at least one VM, in host-ID
// order, skipping fully empty regions of the pool via the index. Policies
// use it for periodic sweeps (e.g. LAVA deadline checks) that only concern
// occupied hosts.
func (p *Pool) ForEachNonEmpty(fn func(*Host)) {
	p.idx.forEachNonEmpty(fn)
}

// Place assigns vm to host h. The VM must not already be placed.
func (p *Pool) Place(vm *VM, h *Host) error {
	if cur, ok := p.vms[vm.ID]; ok {
		return fmt.Errorf("pool %s: vm %d already on host %d", p.Name, vm.ID, cur.ID)
	}
	wasEmpty := h.Empty()
	if err := h.add(vm); err != nil {
		return err
	}
	p.vms[vm.ID] = h
	p.usedTot = p.usedTot.Add(vm.Shape)
	if wasEmpty {
		p.emptyCap = p.emptyCap.Sub(h.Capacity)
	}
	p.idx.update(h.ID)
	p.Placements++
	p.notify(h, HostPlaced)
	return nil
}

// Exit removes the VM from the pool, returning the host it ran on.
func (p *Pool) Exit(id VMID) (*Host, *VM, error) {
	h, ok := p.vms[id]
	if !ok {
		return nil, nil, fmt.Errorf("pool %s: vm %d not running", p.Name, id)
	}
	vm, err := h.remove(id)
	if err != nil {
		return nil, nil, err
	}
	delete(p.vms, id)
	p.usedTot = p.usedTot.Sub(vm.Shape)
	if h.Empty() {
		p.emptyCap = p.emptyCap.Add(h.Capacity)
	}
	p.idx.update(h.ID)
	p.Exits++
	p.notify(h, HostExited)
	return h, vm, nil
}

// Migrate moves a running VM to a different host. The destination must have
// room. It returns the source host.
func (p *Pool) Migrate(id VMID, dst *Host) (*Host, error) {
	src, ok := p.vms[id]
	if !ok {
		return nil, fmt.Errorf("pool %s: vm %d not running", p.Name, id)
	}
	if src == dst {
		return nil, fmt.Errorf("pool %s: vm %d migration to its own host %d", p.Name, id, src.ID)
	}
	dstWasEmpty := dst.Empty()
	vm, err := src.remove(id)
	if err != nil {
		return nil, err
	}
	if err := dst.add(vm); err != nil {
		// Roll back so the pool stays consistent. The aggregates were not
		// touched yet, so the rollback path leaves them consistent too.
		if rbErr := src.add(vm); rbErr != nil {
			panic(fmt.Sprintf("pool %s: migration rollback failed: %v", p.Name, rbErr))
		}
		return nil, err
	}
	p.vms[id] = dst
	// usedTot is unchanged (the VM moved, not exited). Empty-capacity moves
	// if the source drained or the destination was previously empty.
	if src.Empty() {
		p.emptyCap = p.emptyCap.Add(src.Capacity)
	}
	if dstWasEmpty {
		p.emptyCap = p.emptyCap.Sub(dst.Capacity)
	}
	p.idx.update(src.ID)
	p.idx.update(dst.ID)
	vm.Migrations++
	p.Migrations++
	p.notify(src, HostMigratedOut)
	p.notify(dst, HostMigratedIn)
	return src, nil
}

// EmptyHosts returns the number of hosts with no VMs, read off the index's
// block summaries rather than a host scan (it runs at every metric sample).
func (p *Pool) EmptyHosts() int {
	return p.idx.emptyHosts()
}

// EmptyHostFraction returns EmptyHosts / NumHosts, the paper's primary bin
// packing metric (§2.3, Appendix D).
func (p *Pool) EmptyHostFraction() float64 {
	if len(p.hosts) == 0 {
		return 0
	}
	return float64(p.EmptyHosts()) / float64(len(p.hosts))
}

// EmptyToFreeRatio returns the fraction of free CPU cores that sit on
// completely empty hosts (Appendix D). O(1) off the running aggregates: an
// empty host's free CPU is its capacity CPU, so the numerator is emptyCap
// and the denominator the pool-wide free total — both exact integer sums,
// bit-identical to the host scan this replaced.
func (p *Pool) EmptyToFreeRatio() float64 {
	freeCPU := p.capTot.CPUMilli - p.usedTot.CPUMilli
	if freeCPU == 0 {
		return 0
	}
	return float64(p.emptyCap.CPUMilli) / float64(freeCPU)
}

// PackingDensity returns allocated cores on non-empty hosts divided by total
// cores on non-empty hosts, the metric of Barbalho et al. (Appendix D).
// O(1): empty hosts contribute no used cores, so the numerator is the pool
// total, and the denominator subtracts empty capacity from total capacity.
func (p *Pool) PackingDensity() float64 {
	cap := p.capTot.CPUMilli - p.emptyCap.CPUMilli
	if cap == 0 {
		return 0
	}
	return float64(p.usedTot.CPUMilli) / float64(cap)
}

// Utilization returns pool-wide CPU and memory utilization fractions, O(1)
// off the running aggregates.
func (p *Pool) Utilization() (cpu, mem float64) {
	c, m, _ := resources.Utilization(p.usedTot, p.capTot)
	return c, m
}

// FreeTotal returns the pool-wide free resource vector, O(1) off the running
// aggregates.
func (p *Pool) FreeTotal() resources.Vector {
	return p.capTot.Sub(p.usedTot)
}

// RunningVMs returns all running VMs sorted by ID.
func (p *Pool) RunningVMs() []*VM {
	out := make([]*VM, 0, len(p.vms))
	for id, h := range p.vms {
		out = append(out, h.VM(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Clone deep-copies the pool for what-if packing (stranding inflation).
// Subscribers are not copied: the clone starts with a fresh, empty listener
// list, and score caches rebind (and rebuild) when first scheduled against
// a different pool.
func (p *Pool) Clone() *Pool {
	c := &Pool{
		Name: p.Name,
		byID: make(map[HostID]*Host, len(p.hosts)),
		vms:  make(map[VMID]*Host, len(p.vms)),
	}
	for _, h := range p.hosts {
		hc := h.Clone()
		c.hosts = append(c.hosts, hc)
		c.byID[hc.ID] = hc
		for _, vm := range hc.VMs() {
			c.vms[vm.ID] = hc
		}
	}
	c.usedTot = p.usedTot
	c.capTot = p.capTot
	c.emptyCap = p.emptyCap
	c.idx = newCapIndex(c.hosts)
	return c
}

// CheckInvariants verifies internal consistency: per-host used sums match VM
// shapes, no VM is double-booked, and the VM index agrees with host
// contents. Tests and the simulator's debug mode call this.
func (p *Pool) CheckInvariants() error {
	seen := make(map[VMID]HostID)
	for _, h := range p.hosts {
		var sum resources.Vector
		for _, vm := range h.VMs() {
			if prev, dup := seen[vm.ID]; dup {
				return fmt.Errorf("vm %d on both host %d and host %d", vm.ID, prev, h.ID)
			}
			seen[vm.ID] = h.ID
			sum = sum.Add(vm.Shape)
			if vm.Host != h {
				return fmt.Errorf("vm %d back-pointer mismatch: %v != host %d", vm.ID, vm.Host, h.ID)
			}
			if p.vms[vm.ID] != h {
				return fmt.Errorf("vm %d index mismatch", vm.ID)
			}
		}
		if sum != h.Used() {
			return fmt.Errorf("host %d used %s != sum of shapes %s", h.ID, h.Used(), sum)
		}
		if !h.Free().NonNegative() {
			return fmt.Errorf("host %d over-committed: free %s", h.ID, h.Free())
		}
	}
	if len(seen) != len(p.vms) {
		return fmt.Errorf("vm index size %d != hosted VMs %d", len(p.vms), len(seen))
	}
	var usedTot, capTot, emptyCap resources.Vector
	for _, h := range p.hosts {
		usedTot = usedTot.Add(h.Used())
		capTot = capTot.Add(h.Capacity)
		if h.Empty() {
			emptyCap = emptyCap.Add(h.Capacity)
		}
	}
	if usedTot != p.usedTot {
		return fmt.Errorf("usedTot aggregate %s != scan %s", p.usedTot, usedTot)
	}
	if capTot != p.capTot {
		return fmt.Errorf("capTot aggregate %s != scan %s", p.capTot, capTot)
	}
	if emptyCap != p.emptyCap {
		return fmt.Errorf("emptyCap aggregate %s != scan %s", p.emptyCap, emptyCap)
	}
	return p.idx.checkInvariants()
}
