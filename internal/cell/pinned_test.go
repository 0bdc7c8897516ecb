package cell

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// membershipHash folds a plan's per-cell record ID lists — cell index, cell
// size, then every ID in order — into one FNV-1a hash.
func membershipHash(p *Plan) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i, c := range p.Cells {
		binary.LittleEndian.PutUint64(b[:], uint64(i)<<32|uint64(len(c.Records)))
		h.Write(b[:])
		for j := range c.Records {
			binary.LittleEndian.PutUint64(b[:], uint64(c.Records[j].ID))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestShardMembershipPinned pins Shard-on-ledger to what the three
// standalone routers it replaced produced: the hashes were generated once at
// commit e37d453 (cell.NewRouter + Shard, the least-utilized one releasing
// commitments from a ground-truth exit heap) with membershipHash over
// testTrace(seed). Equal hashes mean every record sits in the same cell, in
// the same order — in particular that walking exits through the commitment
// ledger in event order is the heap's "exit <= arrival" release rule.
func TestShardMembershipPinned(t *testing.T) {
	pinned := []struct {
		seed  int64
		kind  string
		cells int
		want  uint64
	}{
		{7, "round-robin", 2, 0x3ad89e0ae50f2625},
		{7, "round-robin", 3, 0x51ae2e8656df426d},
		{7, "round-robin", 5, 0x70732124d8342cd5},
		{7, "least-utilized", 2, 0xb2c718665822e267},
		{7, "least-utilized", 3, 0xfc9658d87063ea5d},
		{7, "least-utilized", 5, 0xc642773e179554f6},
		{7, "feature-hash", 2, 0x2d496a768193c122},
		{7, "feature-hash", 3, 0x7419353f2bab697f},
		{7, "feature-hash", 5, 0x96194ef8c5b768b7},
		{11, "round-robin", 2, 0xd297a9f90c379f59},
		{11, "round-robin", 3, 0x3df598151b0301ff},
		{11, "round-robin", 5, 0x78a49e639707aed},
		{11, "least-utilized", 2, 0x8e752ed155832741},
		{11, "least-utilized", 3, 0x70e28198019df855},
		{11, "least-utilized", 5, 0x1e842e648f4c189b},
		{11, "feature-hash", 2, 0x5958b560630993f1},
		{11, "feature-hash", 3, 0x1c360ca476312f3d},
		{11, "feature-hash", 5, 0xc67ba3d05adc41c7},
		{23, "round-robin", 2, 0xbaecf2c959198f60},
		{23, "round-robin", 3, 0x33a68c6420cc2dfc},
		{23, "round-robin", 5, 0xde342e77f1c45b1e},
		{23, "least-utilized", 2, 0x215e187c2e0a429},
		{23, "least-utilized", 3, 0x5a7c1bbb7d4b6be6},
		{23, "least-utilized", 5, 0x9324f07d1d8f6e27},
		{23, "feature-hash", 2, 0xbc84e06887d15bcc},
		{23, "feature-hash", 3, 0x8e281a095fc66d6e},
		{23, "feature-hash", 5, 0x4b3931fef88116c4},
	}
	for _, p := range pinned {
		plan, err := PlanCells(testTrace(t, p.seed), p.kind, p.cells)
		if err != nil {
			t.Fatal(err)
		}
		if got := membershipHash(plan); got != p.want {
			t.Errorf("seed %d %s x%d: membership hash %#x, pinned %#x", p.seed, p.kind, p.cells, got, p.want)
		}
	}
}
