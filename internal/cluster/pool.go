package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

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
	hosts []*Host         // sorted by ID; membership changes only via AddHosts/RemoveHost
	vms   map[VMID]*VM    // running VMs by ID; VM.Host names the host
	res   []*Reservation  // live reservations, a few at a time
	subs  []*subscription // host-event subscribers (see events.go)

	// Running pool-wide aggregates, maintained O(1) per mutation so metric
	// sampling costs O(1) instead of an O(hosts) scan. All four are exact
	// integer sums, so the derived metrics are bit-identical to the scans
	// they replaced. emptyCap is the capacity summed over currently empty
	// hosts (an empty host's free vector IS its capacity) and empty counts
	// those hosts; the two change together.
	usedTot  resources.Vector
	capTot   resources.Vector
	emptyCap resources.Vector
	empty    int

	// firstOcc is the occupancy count new hosts start at: past the count
	// of every host removed so far, so a host that reuses a removed one's
	// ID never repeats one of its occupancies (see Host.Occupancy).
	firstOcc uint32
}

// NewPool builds a pool of n identical hosts with the given capacity.
func NewPool(name string, n int, capacity resources.Vector) *Pool {
	p := &Pool{Name: name, hosts: make([]*Host, 0, n), vms: make(map[VMID]*VM)}
	p.addSlab(n, capacity)
	return p
}

// addSlab appends n empty hosts with IDs past the current maximum, all in
// one slab, so a batch of hosts costs one allocation whatever its size (a
// host's VM slice is allocated on its first placement). It returns the new
// hosts.
func (p *Pool) addSlab(n int, capacity resources.Vector) []*Host {
	next := HostID(0)
	if len(p.hosts) > 0 {
		next = p.hosts[len(p.hosts)-1].ID + 1 // hosts are sorted by ID
	}
	slab := make([]Host, n)
	for i := range slab {
		slab[i] = Host{ID: next + HostID(i), occupancy: p.firstOcc, Capacity: capacity}
		p.hosts = append(p.hosts, &slab[i])
		p.capTot = p.capTot.Add(capacity)
		p.emptyCap = p.emptyCap.Add(capacity)
	}
	p.empty += n
	return p.hosts[len(p.hosts)-n:]
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
	added := p.addSlab(n, capacity)
	for _, h := range added {
		p.notify(h, HostAdded)
	}
	return added
}

// RemoveHost retires an empty host from the pool. Hosts still running VMs
// or holding reservations cannot be removed — migrate, exit or release
// them first. Removing any host other than the highest-ID one leaves the
// pool's IDs non-dense, which demotes incremental score caches to their
// exhaustive fallback (correct, slower). The removal publishes a
// HostRemoved event.
func (p *Pool) RemoveHost(id HostID) error {
	h := p.Host(id)
	if h == nil {
		return fmt.Errorf("pool %s: host %d not in pool", p.Name, id)
	}
	if !h.Empty() {
		return fmt.Errorf("pool %s: host %d still runs %d VMs and holds %d reservations", p.Name, id, h.NumVMs(), h.holds)
	}
	i, last := p.index(id), len(p.hosts)-1
	copy(p.hosts[i:], p.hosts[i+1:])
	p.hosts[last] = nil
	p.hosts = p.hosts[:last]
	p.capTot = p.capTot.Sub(h.Capacity)
	p.emptyCap = p.emptyCap.Sub(h.Capacity) // removable hosts are empty
	p.empty--
	p.firstOcc = max(p.firstOcc, h.occupancy+1)
	p.notify(h, HostRemoved)
	return nil
}

// Host returns the host with the given ID, or nil. A pool that has only
// grown holds host i at index i, so the lookup is one comparison; a pool
// with removed hosts falls back to a binary search of the ID-sorted hosts.
func (p *Pool) Host(id HostID) *Host {
	if uint64(id) < uint64(len(p.hosts)) {
		if h := p.hosts[id]; h.ID == id {
			return h
		}
	}
	if i := p.index(id); i >= 0 {
		return p.hosts[i]
	}
	return nil
}

// index returns the position of the host with the given ID in hosts, or -1.
func (p *Pool) index(id HostID) int {
	i, ok := slices.BinarySearchFunc(p.hosts, id, func(h *Host, id HostID) int { return cmp.Compare(h.ID, id) })
	if !ok {
		return -1
	}
	return i
}

// NumHosts returns the pool size.
func (p *Pool) NumHosts() int { return len(p.hosts) }

// NumVMs returns the number of currently running VMs.
func (p *Pool) NumVMs() int { return len(p.vms) }

// HostOf returns the host currently running the VM, or nil.
func (p *Pool) HostOf(id VMID) *Host {
	if vm := p.vms[id]; vm != nil {
		return vm.Host
	}
	return nil
}

// VM returns the running VM with the given ID, or nil.
func (p *Pool) VM(id VMID) *VM { return p.vms[id] }

// AppendFeasible appends the available hosts that can fit a VM of the given
// shape to dst and returns the extended slice, in host-ID order. It scans
// every host; callers pass a reusable buffer (dst[:0]) to avoid
// per-request allocation.
func (p *Pool) AppendFeasible(dst []*Host, shape resources.Vector) []*Host {
	for _, h := range p.hosts {
		if !h.Unavailable && h.Fits(shape) {
			dst = append(dst, h)
		}
	}
	return dst
}

// Place assigns vm to host h. The VM must not already be placed.
func (p *Pool) Place(vm *VM, h *Host) error {
	if cur, ok := p.vms[vm.ID]; ok {
		return fmt.Errorf("pool %s: vm %d already on host %d", p.Name, vm.ID, cur.Host.ID)
	}
	if err := h.admit(vm); err != nil {
		return err
	}
	wasEmpty := h.Empty()
	h.add(vm)
	p.vms[vm.ID] = vm
	p.usedTot = p.usedTot.Add(vm.Shape)
	if wasEmpty {
		p.emptyCap = p.emptyCap.Sub(h.Capacity)
		p.empty--
	}
	p.notify(h, HostChanged)
	return nil
}

// ErrNotRunning is Exit's error for a VM the pool does not run. Exit
// returns it unwrapped, so the answer costs no allocation: a replay asks it
// for every trace exit of a VM whose placement failed.
var ErrNotRunning = errors.New("vm not running")

// Exit removes the VM from the pool, returning the host it ran on, or
// ErrNotRunning.
func (p *Pool) Exit(id VMID) (*Host, *VM, error) {
	vm, ok := p.vms[id]
	if !ok {
		return nil, nil, ErrNotRunning
	}
	h := vm.Host
	h.remove(vm)
	delete(p.vms, id)
	p.usedTot = p.usedTot.Sub(vm.Shape)
	if h.Empty() {
		p.emptyCap = p.emptyCap.Add(h.Capacity)
		p.empty++
	}
	p.notify(h, HostChanged)
	return h, vm, nil
}

// Migrate moves a running VM to a different host. The destination must have
// room. It returns the source host. A refused move leaves both hosts and
// the VM exactly as they were.
func (p *Pool) Migrate(id VMID, dst *Host) (*Host, error) {
	vm, ok := p.vms[id]
	if !ok {
		return nil, fmt.Errorf("pool %s: vm %d not running", p.Name, id)
	}
	src := vm.Host
	if src == dst {
		return nil, fmt.Errorf("pool %s: vm %d migration to its own host %d", p.Name, id, src.ID)
	}
	if err := dst.admit(vm); err != nil {
		return nil, err
	}
	dstWasEmpty := dst.Empty()
	src.remove(vm)
	dst.add(vm)
	// usedTot is unchanged (the VM moved, not exited). Empty-capacity moves
	// if the source drained or the destination was previously empty.
	if src.Empty() {
		p.emptyCap = p.emptyCap.Add(src.Capacity)
		p.empty++
	}
	if dstWasEmpty {
		p.emptyCap = p.emptyCap.Sub(dst.Capacity)
		p.empty--
	}
	p.notify(src, HostChanged)
	p.notify(dst, HostChanged)
	return src, nil
}

// Reservation is capacity held on a host that no VM occupies: the copy
// window of a live migration on its target, during which the VM takes
// capacity on both hosts (§4.4). The host's used vector and the pool's
// aggregates count it, so it narrows the fit check and the host is not
// empty while it lasts; no VM list, VM count or policy sees it.
type Reservation struct {
	host  *Host
	shape resources.Vector
}

// Reserve holds shape on h until Release. A reservation on an empty host
// starts the host's occupancy, as a placement does. It publishes
// HostChanged.
func (p *Pool) Reserve(h *Host, shape resources.Vector) (*Reservation, error) {
	if !h.Fits(shape) {
		return nil, fmt.Errorf("host %d: reservation of %s does not fit free %s", h.ID, shape, h.Free())
	}
	if h.holds == math.MaxUint16 {
		return nil, fmt.Errorf("host %d: %d reservations already", h.ID, h.holds)
	}
	if h.Empty() {
		p.emptyCap = p.emptyCap.Sub(h.Capacity)
		p.empty--
	}
	h.holds++
	h.used = h.used.Add(shape)
	p.usedTot = p.usedTot.Add(shape)
	r := &Reservation{host: h, shape: shape}
	p.res = append(p.res, r)
	p.notify(h, HostChanged)
	return r, nil
}

// Release gives a reservation's capacity back. A host it leaves with no VM
// and no reservation goes empty, which ends its occupancy. It publishes
// HostChanged, and refuses a reservation the pool does not hold (released
// already, or another pool's).
func (p *Pool) Release(r *Reservation) error {
	k := slices.Index(p.res, r)
	if k < 0 {
		return fmt.Errorf("pool %s: reservation not held", p.Name)
	}
	p.res = slices.Delete(p.res, k, k+1)
	h := r.host
	h.holds--
	h.used = h.used.Sub(r.shape)
	p.usedTot = p.usedTot.Sub(r.shape)
	if h.Empty() {
		h.occupancy++
		p.emptyCap = p.emptyCap.Add(h.Capacity)
		p.empty++
	}
	p.notify(h, HostChanged)
	return nil
}

// EmptyHosts returns the number of empty hosts (Host.Empty), O(1) off the
// running aggregates (it runs at every metric sample).
func (p *Pool) EmptyHosts() int { return p.empty }

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
	for _, vm := range p.vms {
		out = append(out, vm)
	}
	slices.SortFunc(out, byID)
	return out
}

// CheckInvariants verifies internal consistency: per-host used sums match VM
// and reservation shapes, each host's reservation count matches the pool's
// live reservations on it, every VM's back-pointer names the host that
// holds it and its index entry names the VM itself, no VM is double-booked,
// the index holds exactly the hosted VMs, and the running aggregates match
// a scan. It is one pass over the hosts, their VMs and the few live
// reservations that allocates nothing, so tests may call it after every
// step; the simulator's debug mode calls it at every sample.
func (p *Pool) CheckInvariants() error {
	var usedTot, capTot, emptyCap resources.Vector
	empty, hosted, held := 0, 0, 0
	for _, h := range p.hosts {
		var sum resources.Vector
		for k, vm := range h.vms {
			// A host holds tens of VMs, so the scan of its earlier ones is short.
			if slices.Index(h.vms, vm) != k {
				return fmt.Errorf("vm %d twice on host %d", vm.ID, h.ID)
			}
			if vm.Host != h {
				return fmt.Errorf("vm %d back-pointer mismatch: %v != host %d", vm.ID, vm.Host, h.ID)
			}
			// Two VMs of one ID, on one host or two, share one index entry.
			if iv := p.vms[vm.ID]; iv != vm {
				return fmt.Errorf("vm %d on host %d, indexed as %v", vm.ID, h.ID, iv)
			}
			sum = sum.Add(vm.Shape)
		}
		hosted += len(h.vms)
		if h.holds > 0 {
			n := 0
			for _, r := range p.res {
				if r.host == h {
					n++
					sum = sum.Add(r.shape)
				}
			}
			if n != int(h.holds) {
				return fmt.Errorf("host %d counts %d reservations, the pool holds %d on it", h.ID, h.holds, n)
			}
			held += n
		}
		if sum != h.Used() {
			return fmt.Errorf("host %d used %s != sum of shapes %s", h.ID, h.Used(), sum)
		}
		if !h.Free().NonNegative() {
			return fmt.Errorf("host %d over-committed: free %s", h.ID, h.Free())
		}
		usedTot = usedTot.Add(h.Used())
		capTot = capTot.Add(h.Capacity)
		if h.Empty() {
			emptyCap = emptyCap.Add(h.Capacity)
			empty++
		}
	}
	// Every hosted VM is the entry of its own ID and no VM is hosted twice,
	// so equal counts leave no stale entry.
	if hosted != len(p.vms) {
		return fmt.Errorf("vm index size %d != hosted VMs %d", len(p.vms), hosted)
	}
	if held != len(p.res) {
		return fmt.Errorf("%d live reservations, %d on member hosts", len(p.res), held)
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
	if empty != p.empty {
		return fmt.Errorf("empty-host count %d != scan %d", p.empty, empty)
	}
	return nil
}
