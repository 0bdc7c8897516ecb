package resources

import "fmt"

// Vector is a multi-dimensional resource amount. CPU is measured in
// milli-cores so that fractional-core VM shapes stay integral, memory in
// MiB, and SSD in GiB. The zero Vector is empty.
type Vector struct {
	CPUMilli int64 // CPU in milli-cores (1000 = one core)
	MemoryMB int64 // memory in MiB
	SSDGB    int64 // local SSD in GiB (0 for VMs without SSD)
}

// Cores builds a Vector from whole cores / MiB / GiB.
func Cores(cores, memoryMB, ssdGB int64) Vector {
	return Vector{CPUMilli: cores * 1000, MemoryMB: memoryMB, SSDGB: ssdGB}
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	return Vector{v.CPUMilli + w.CPUMilli, v.MemoryMB + w.MemoryMB, v.SSDGB + w.SSDGB}
}

// Sub returns v - w. The caller is responsible for ensuring the result is
// meaningful; Sub does not clamp.
func (v Vector) Sub(w Vector) Vector {
	return Vector{v.CPUMilli - w.CPUMilli, v.MemoryMB - w.MemoryMB, v.SSDGB - w.SSDGB}
}

// Fits reports whether a VM of shape v fits into free capacity w in every
// dimension.
func (v Vector) Fits(w Vector) bool {
	return v.CPUMilli <= w.CPUMilli && v.MemoryMB <= w.MemoryMB && v.SSDGB <= w.SSDGB
}

// IsZero reports whether every dimension is zero.
func (v Vector) IsZero() bool {
	return v.CPUMilli == 0 && v.MemoryMB == 0 && v.SSDGB == 0
}

// NonNegative reports whether every dimension is >= 0.
func (v Vector) NonNegative() bool {
	return v.CPUMilli >= 0 && v.MemoryMB >= 0 && v.SSDGB >= 0
}

// Scale returns v with every dimension multiplied by f and truncated toward
// zero.
func (v Vector) Scale(f float64) Vector {
	return Vector{
		CPUMilli: int64(f * float64(v.CPUMilli)),
		MemoryMB: int64(f * float64(v.MemoryMB)),
		SSDGB:    int64(f * float64(v.SSDGB)),
	}
}

// Utilization returns the per-dimension used/capacity fractions of used
// relative to capacity cap. Dimensions with zero capacity report 0.
func Utilization(used, cap Vector) (cpu, mem, ssd float64) {
	if cap.CPUMilli > 0 {
		cpu = float64(used.CPUMilli) / float64(cap.CPUMilli)
	}
	if cap.MemoryMB > 0 {
		mem = float64(used.MemoryMB) / float64(cap.MemoryMB)
	}
	if cap.SSDGB > 0 {
		ssd = float64(used.SSDGB) / float64(cap.SSDGB)
	}
	return cpu, mem, ssd
}

// MaxUtilization returns the maximum per-dimension utilization of used
// relative to capacity. LAVA uses >=90% of CPU or memory as the open ->
// recycling transition trigger (§4.3).
func MaxUtilization(used, cap Vector) float64 {
	cpu, mem, _ := Utilization(used, cap)
	if cpu > mem {
		return cpu
	}
	return mem
}

// DominantShare returns the largest fraction any dimension of v occupies of
// capacity cap. It is the standard dominant-resource measure used by the
// best-fit policy.
func DominantShare(v, cap Vector) float64 {
	best := 0.0
	if cap.CPUMilli > 0 {
		if s := float64(v.CPUMilli) / float64(cap.CPUMilli); s > best {
			best = s
		}
	}
	if cap.MemoryMB > 0 {
		if s := float64(v.MemoryMB) / float64(cap.MemoryMB); s > best {
			best = s
		}
	}
	if cap.SSDGB > 0 {
		if s := float64(v.SSDGB) / float64(cap.SSDGB); s > best {
			best = s
		}
	}
	return best
}

// Imbalance measures how lopsided the free shape v is relative to capacity
// cap: the difference between the largest and smallest free fraction across
// the CPU and memory dimensions (SSD is excluded because many families have
// no SSD). A perfectly proportional free shape scores 0; a host with free
// memory but no free CPU scores ~1. The waste-minimization baseline
// minimizes this quantity to keep leftover shapes schedulable (§2.2).
func Imbalance(v, cap Vector) float64 {
	if cap.CPUMilli <= 0 || cap.MemoryMB <= 0 {
		return 0
	}
	cpu := float64(v.CPUMilli) / float64(cap.CPUMilli)
	mem := float64(v.MemoryMB) / float64(cap.MemoryMB)
	if cpu < mem {
		return mem - cpu
	}
	return cpu - mem
}

// String renders the vector in a compact human-readable form.
func (v Vector) String() string {
	return fmt.Sprintf("cpu=%dm mem=%dMB ssd=%dGB", v.CPUMilli, v.MemoryMB, v.SSDGB)
}
