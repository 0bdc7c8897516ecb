package stranding

import (
	"errors"
	"sort"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
	"lava/internal/sim"
	"lava/internal/trace"
)

// Result reports one stranding measurement.
type Result struct {
	Time time.Duration

	// StrandedCPUFrac and StrandedMemFrac are the fractions of total pool
	// capacity left unusable after inflation. 1 pp of stranding reduction
	// translates directly into 1% of capacity (§6.2).
	StrandedCPUFrac float64
	StrandedMemFrac float64

	// VMsPlaced is how many mix VMs the inflation packed before exhaustion.
	VMsPlaced int
}

// Measure packs a what-if copy of the pool's usage with the mix shapes
// (cycled in order) using best-fit until no shape fits anywhere, then
// reports the leftover free resources as stranded. It copies only each
// host's Used vector; capacity and Unavailable are read off the live
// hosts, which Measure leaves untouched.
func Measure(p *cluster.Pool, mix []resources.Vector, now time.Duration) (Result, error) {
	if len(mix) == 0 {
		return Result{}, errors.New("stranding: empty VM mix")
	}
	hosts := p.Hosts()
	used := make([]resources.Vector, len(hosts))
	var totalCap, totalUsed resources.Vector
	for i, h := range hosts {
		used[i] = h.Used()
		totalCap = totalCap.Add(h.Capacity)
		totalUsed = totalUsed.Add(used[i])
	}

	placed := 0
	alive := make([]bool, len(mix))
	for i := range alive {
		alive[i] = true
	}
	remaining := len(mix)
	for i := 0; remaining > 0; i = (i + 1) % len(mix) {
		if !alive[i] {
			continue
		}
		k := bestFitHost(hosts, used, mix[i])
		if k < 0 {
			alive[i] = false
			remaining--
			continue
		}
		used[k] = used[k].Add(mix[i])
		totalUsed = totalUsed.Add(mix[i])
		placed++
	}

	free := totalCap.Sub(totalUsed)
	res := Result{Time: now, VMsPlaced: placed}
	if totalCap.CPUMilli > 0 {
		res.StrandedCPUFrac = float64(free.CPUMilli) / float64(totalCap.CPUMilli)
	}
	if totalCap.MemoryMB > 0 {
		res.StrandedMemFrac = float64(free.MemoryMB) / float64(totalCap.MemoryMB)
	}
	return res, nil
}

// bestFitHost returns the index of the available host that, with used[k]
// as its usage, has the highest post-placement dominant share, or -1 when
// the shape fits nowhere.
func bestFitHost(hosts []*cluster.Host, used []resources.Vector, shape resources.Vector) int {
	best, bestScore := -1, -1.0
	for k, h := range hosts {
		if h.Unavailable() || !shape.Fits(h.Capacity.Sub(used[k])) {
			continue
		}
		score := resources.DominantShare(used[k].Add(shape), h.Capacity)
		if score > bestScore {
			best, bestScore = k, score
		}
	}
	return best
}

// MixFromTrace derives a representative inflation mix: the most common VM
// shapes in the records, deduplicated, largest-first capped at maxShapes.
func MixFromTrace(records []trace.Record, maxShapes int) []resources.Vector {
	if maxShapes <= 0 {
		maxShapes = 8
	}
	counts := map[resources.Vector]int{}
	for _, r := range records {
		counts[r.Shape]++
	}
	shapes := make([]resources.Vector, 0, len(counts))
	for s := range counts {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(i, j int) bool {
		if counts[shapes[i]] != counts[shapes[j]] {
			return counts[shapes[i]] > counts[shapes[j]]
		}
		return shapes[i].CPUMilli > shapes[j].CPUMilli
	})
	if len(shapes) > maxShapes {
		shapes = shapes[:maxShapes]
	}
	return shapes
}

// Prober is a sim.Injector that measures stranding periodically.
type Prober struct {
	Mix     []resources.Vector
	Every   time.Duration
	Results []Result

	next time.Duration
}

// Inject implements sim.Injector.
func (p *Prober) Inject(ctl *sim.Control, now time.Duration) {
	if p.Every == 0 || now < p.next {
		return
	}
	p.next = now + p.Every
	res, err := Measure(ctl.Pool(), p.Mix, now)
	if err != nil {
		return
	}
	p.Results = append(p.Results, res)
}

// AvgStrandedCPU averages stranded CPU over measurements at or after from.
func (p *Prober) AvgStrandedCPU(from time.Duration) float64 {
	return p.avg(from, func(r Result) float64 { return r.StrandedCPUFrac })
}

// AvgStrandedMem averages stranded memory over measurements at or after from.
func (p *Prober) AvgStrandedMem(from time.Duration) float64 {
	return p.avg(from, func(r Result) float64 { return r.StrandedMemFrac })
}

func (p *Prober) avg(from time.Duration, f func(Result) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range p.Results {
		if r.Time >= from {
			sum += f(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
