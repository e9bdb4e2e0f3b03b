package vm

import (
	"math/bits"
	"sort"
	"testing"
)

// TestExpandClusters pins the intended behaviour of blind block page-out
// expansion: each victim grows with up to ClusterOut-1 contiguous cold
// neighbours of the same process, forward first then backward, and the
// expansion NEVER straddles a page that is non-resident, in flight,
// referenced, aged, or already selected this pass — the block stops at the
// first such page in each direction. The expanded set may exceed the
// reclaim target that picked the seed victims: that over-shoot is by
// design (blocks are written whole), which is why reclaim() reports the
// expanded count to its caller.
func TestExpandClusters(t *testing.T) {
	const clusterOut = 4

	type tc struct {
		name string
		prep func(r *rig, as *AddressSpace) // mark pages before expansion
		seed []int                          // pre-selected victims
		want []int                          // expanded victim set
	}
	cases := []tc{
		{
			name: "grows forward then backward up to the cap",
			seed: []int{10},
			want: []int{10, 11, 12, 13}, // 3 forward neighbours fill the cap
		},
		{
			name: "backward fills what forward cannot",
			prep: func(r *rig, as *AddressSpace) { r.markInFlight(as, 11) },
			seed: []int{10},
			want: []int{7, 8, 9, 10}, // forward blocked at once, 12 unreachable
		},
		{
			name: "never straddles an in-flight page",
			prep: func(r *rig, as *AddressSpace) {
				r.markInFlight(as, 12)
				r.markInFlight(as, 8)
			},
			seed: []int{10},
			want: []int{9, 10, 11}, // stops at 12 and at 8, never beyond
		},
		{
			name: "stops at referenced and aged pages",
			prep: func(r *rig, as *AddressSpace) {
				setBit(as.ref, 11)
				as.age[9] = 1
			},
			seed: []int{10},
			want: []int{10},
		},
		{
			name: "stops at a non-resident page",
			prep: func(r *rig, as *AddressSpace) { r.markEvicted(as, 12) },
			seed: []int{10},
			want: []int{8, 9, 10, 11}, // 11 taken forward, cap met backward
		},
		{
			name: "does not re-select pages already taken this pass",
			seed: []int{10, 12},
			// Victim 10 grows forward into 11, stops at 12 (already taken),
			// then fills backward with 9 and 8. Victim 12 grows forward into
			// 13, 14, 15; backward it stops immediately at 11 (taken).
			want: []int{8, 9, 10, 11, 12, 13, 14, 15},
		},
		{
			name: "clamps at the low footprint edge",
			prep: func(r *rig, as *AddressSpace) { r.markInFlight(as, 3) },
			seed: []int{1},
			want: []int{0, 1, 2}, // forward stops at 3; backward stops below page 0
		},
		{
			name: "clamps at the high footprint edge",
			prep: func(r *rig, as *AddressSpace) { r.markInFlight(as, 37) },
			seed: []int{38},
			want: []int{38, 39}, // page 40 is past the 40-page footprint
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 256, 0, 0, Config{ClusterOut: clusterOut})
			r.vm.NewProcess(1, 40)
			r.touchAll(t, 1, 40, false)
			as := r.vm.Process(1)
			// Decay every page to cold (age 0, unreferenced) so only the
			// case's explicit marks block expansion.
			clear(as.age)
			clear(as.ref)
			if c.prep != nil {
				c.prep(r, as)
			}
			pass := &r.vm.pass
			pass.reset()
			victims := make([]victim, 0, len(c.seed))
			for _, vp := range c.seed {
				pass.add(as, vp>>6, 1<<(vp&63))
				victims = append(victims, victim{as, vp >> 6, 1 << (vp & 63)})
			}
			got := r.vm.expandClusters(victims, pass)
			pages := make([]int, 0, len(got))
			for _, vi := range got {
				if vi.as != as {
					t.Fatalf("victim crossed into another address space: %+v", vi)
				}
				for m := vi.mask; m != 0; m &= m - 1 {
					pages = append(pages, vi.wi<<6+bits.TrailingZeros64(m))
				}
			}
			sort.Ints(pages)
			if !equalInts(pages, c.want) {
				t.Fatalf("expanded set = %v, want %v", pages, c.want)
			}
			// Every expanded page must be marked taken, so a later sweep of
			// the same pass cannot double-select it.
			for _, vp := range pages {
				if !pass.has(as, vp) {
					t.Fatalf("expanded page %d not recorded in the pass", vp)
				}
			}
		})
	}
}

// TestExpandClustersOverTarget pins the documented over-shoot: a reclaim
// target of 1 with ClusterOut=8 may evict up to 8 pages. The caller
// (ensureFree) relies on reclaim() reporting the expanded count.
func TestExpandClustersOverTarget(t *testing.T) {
	r := newRig(t, 256, 0, 0, Config{ClusterOut: 8})
	r.vm.NewProcess(1, 40)
	r.touchAll(t, 1, 40, false)
	as := r.vm.Process(1)
	clear(as.age)
	clear(as.ref)
	freed := r.vm.Reclaim(1)
	if freed != 8 {
		t.Fatalf("reclaim(1) with ClusterOut=8 freed %d pages, want the full 8-page block", freed)
	}
	if got := as.Resident(); got != 32 {
		t.Fatalf("resident after block eviction = %d, want 32", got)
	}
}

// markInFlight puts a resident page into the mid-transfer state a demand
// page-in leaves it in: frame mapped, inFlight set, not counted resident.
func (r *rig) markInFlight(as *AddressSpace, vp int) {
	setBit(as.inFlight, vp)
	clearBit(as.settled, vp)
	as.resident--
}

// markEvicted unmaps a resident clean page as a completed eviction would.
func (r *rig) markEvicted(as *AddressSpace, vp int) {
	r.vm.Phys().Release(1)
	clearBit(as.settled, vp)
	clearBit(as.ref, vp)
	as.resident--
	as.mapped--
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
