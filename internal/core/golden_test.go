package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/gen"
)

// goldenGenerators are the graph families the golden matrix covers: a
// skewed R-MAT graph at two sizes, a power-law Chung–Lu graph and a
// regular 3D mesh.
var goldenGenerators = []struct {
	name  string
	short bool
	gen   func() *gen.Generator
}{
	{"rmat12", true, func() *gen.Generator { return gen.RMAT(12, 16, 1) }},
	{"rmat14", false, func() *gen.Generator { return gen.RMAT(14, 16, 1) }},
	{"chunglu", true, func() *gen.Generator { return gen.ChungLu(1<<12, 1<<15, 2.2, 1) }},
	{"grid16", false, func() *gen.Generator { return gen.Grid3D(16, 16, 16) }},
}

// hashPartition fingerprints a global partition: FNV-1a over the
// little-endian bytes of every label.
func hashPartition(parts []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range parts {
		b[0], b[1], b[2], b[3] = byte(p), byte(p>>8), byte(p>>16), byte(p>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenPartitionHashes pins the exact partition of every
// configuration in generator × p × ranks × exchange mode × constraint
// mode at one thread per rank and seed 1. Any change to the stage
// bodies, the exchange or the settle that alters a single label fails
// it; a change that is meant to keep partitions bit-identical must
// pass it unchanged. Under -short only the multi-constraint runs of the
// short generators at p=8 and p=256 on two ranks run.
func TestGoldenPartitionHashes(t *testing.T) {
	for _, g := range goldenGenerators {
		gr := g.gen()
		for _, p := range []int{2, 8, 64, 256} {
			for _, ranks := range []int{1, 2, 4} {
				for _, ex := range []ExchangeMode{ExchangeSync, ExchangeAsyncDelta} {
					for _, single := range []bool{true, false} {
						short := g.short && (p == 8 || p == 256) && ranks == 2 && !single
						if testing.Short() && !short {
							continue
						}
						name := fmt.Sprintf("%s/p%d/r%d/%s/%s", g.name, p, ranks, ex, constraintName(single))
						opt := DefaultOptions(p)
						opt.Seed = 1
						opt.Exchange = ex
						opt.SingleConstraint = single
						parts, _ := runPartition(t, gr, ranks, opt)
						if got, want := hashPartition(parts), goldenHashes[name]; got != want {
							t.Errorf("%s: partition hash %#016x, want %#016x", name, got, want)
						}
					}
				}
			}
		}
	}
}

func constraintName(single bool) string {
	if single {
		return "single"
	}
	return "multi"
}

// goldenHashes holds the expected partition hash of every golden
// configuration.
var goldenHashes = map[string]uint64{
	"rmat12/p2/r1/sync/single":           0x1306e6bb5d87a0a5,
	"rmat12/p2/r1/sync/multi":            0xe0c218dcbe9fff15,
	"rmat12/p2/r1/async-delta/single":    0x1306e6bb5d87a0a5,
	"rmat12/p2/r1/async-delta/multi":     0xe0c218dcbe9fff15,
	"rmat12/p2/r2/sync/single":           0x5aa31b046461b235,
	"rmat12/p2/r2/sync/multi":            0x01de0b4e91bcd1f4,
	"rmat12/p2/r2/async-delta/single":    0x5aa31b046461b235,
	"rmat12/p2/r2/async-delta/multi":     0x01de0b4e91bcd1f4,
	"rmat12/p2/r4/sync/single":           0x33384a08c6cea495,
	"rmat12/p2/r4/sync/multi":            0x45722d9652f011c4,
	"rmat12/p2/r4/async-delta/single":    0x33384a08c6cea495,
	"rmat12/p2/r4/async-delta/multi":     0x45722d9652f011c4,
	"rmat12/p8/r1/sync/single":           0x2c1bc81724a75a13,
	"rmat12/p8/r1/sync/multi":            0xac0ad603cdfc0b75,
	"rmat12/p8/r1/async-delta/single":    0x2c1bc81724a75a13,
	"rmat12/p8/r1/async-delta/multi":     0xac0ad603cdfc0b75,
	"rmat12/p8/r2/sync/single":           0x9293a24532eb6b53,
	"rmat12/p8/r2/sync/multi":            0xafcb6e8e6e623817,
	"rmat12/p8/r2/async-delta/single":    0x9293a24532eb6b53,
	"rmat12/p8/r2/async-delta/multi":     0xafcb6e8e6e623817,
	"rmat12/p8/r4/sync/single":           0xdd0d53cdc0434057,
	"rmat12/p8/r4/sync/multi":            0xf5d5539bea9e68e5,
	"rmat12/p8/r4/async-delta/single":    0xdd0d53cdc0434057,
	"rmat12/p8/r4/async-delta/multi":     0xf5d5539bea9e68e5,
	"rmat12/p64/r1/sync/single":          0x841f260bd0a013e5,
	"rmat12/p64/r1/sync/multi":           0x5c217bb95736825f,
	"rmat12/p64/r1/async-delta/single":   0x841f260bd0a013e5,
	"rmat12/p64/r1/async-delta/multi":    0x5c217bb95736825f,
	"rmat12/p64/r2/sync/single":          0x3f27e4696d1906ea,
	"rmat12/p64/r2/sync/multi":           0x7f5988b0197e0050,
	"rmat12/p64/r2/async-delta/single":   0x3f27e4696d1906ea,
	"rmat12/p64/r2/async-delta/multi":    0x7f5988b0197e0050,
	"rmat12/p64/r4/sync/single":          0x92315ea125fcd245,
	"rmat12/p64/r4/sync/multi":           0x76af58f707314188,
	"rmat12/p64/r4/async-delta/single":   0x92315ea125fcd245,
	"rmat12/p64/r4/async-delta/multi":    0x76af58f707314188,
	"rmat12/p256/r1/sync/single":         0x8c2db55d08090098,
	"rmat12/p256/r1/sync/multi":          0x21e1379478e54955,
	"rmat12/p256/r1/async-delta/single":  0x8c2db55d08090098,
	"rmat12/p256/r1/async-delta/multi":   0x21e1379478e54955,
	"rmat12/p256/r2/sync/single":         0x7f5ac6409b5309ad,
	"rmat12/p256/r2/sync/multi":          0x9a7dc9fb3d31654f,
	"rmat12/p256/r2/async-delta/single":  0x7f5ac6409b5309ad,
	"rmat12/p256/r2/async-delta/multi":   0x9a7dc9fb3d31654f,
	"rmat12/p256/r4/sync/single":         0xe67721145e793ffb,
	"rmat12/p256/r4/sync/multi":          0x5f917424c21c2087,
	"rmat12/p256/r4/async-delta/single":  0xe67721145e793ffb,
	"rmat12/p256/r4/async-delta/multi":   0x5f917424c21c2087,
	"rmat14/p2/r1/sync/single":           0x35c7ad3c4a754c84,
	"rmat14/p2/r1/sync/multi":            0xb980bca98eaf32d4,
	"rmat14/p2/r1/async-delta/single":    0x35c7ad3c4a754c84,
	"rmat14/p2/r1/async-delta/multi":     0xb980bca98eaf32d4,
	"rmat14/p2/r2/sync/single":           0x26a6ec35d3f7fb35,
	"rmat14/p2/r2/sync/multi":            0x53c7d91a3a69a025,
	"rmat14/p2/r2/async-delta/single":    0x26a6ec35d3f7fb35,
	"rmat14/p2/r2/async-delta/multi":     0x53c7d91a3a69a025,
	"rmat14/p2/r4/sync/single":           0x368f76b5f4e97184,
	"rmat14/p2/r4/sync/multi":            0x1c65916d46279f15,
	"rmat14/p2/r4/async-delta/single":    0x368f76b5f4e97184,
	"rmat14/p2/r4/async-delta/multi":     0x1c65916d46279f15,
	"rmat14/p8/r1/sync/single":           0xdcce8b4b6a36aa12,
	"rmat14/p8/r1/sync/multi":            0xf03ff6d768b8cc76,
	"rmat14/p8/r1/async-delta/single":    0xdcce8b4b6a36aa12,
	"rmat14/p8/r1/async-delta/multi":     0xf03ff6d768b8cc76,
	"rmat14/p8/r2/sync/single":           0x0b30e2d2018e3d84,
	"rmat14/p8/r2/sync/multi":            0xdbfb16f2f4114827,
	"rmat14/p8/r2/async-delta/single":    0x0b30e2d2018e3d84,
	"rmat14/p8/r2/async-delta/multi":     0xdbfb16f2f4114827,
	"rmat14/p8/r4/sync/single":           0xc5ee54bf13b8e4d7,
	"rmat14/p8/r4/sync/multi":            0x1456a66d9a460340,
	"rmat14/p8/r4/async-delta/single":    0xc5ee54bf13b8e4d7,
	"rmat14/p8/r4/async-delta/multi":     0x1456a66d9a460340,
	"rmat14/p64/r1/sync/single":          0x15b3ca3ac92fea1f,
	"rmat14/p64/r1/sync/multi":           0xa86f5fab5357f35c,
	"rmat14/p64/r1/async-delta/single":   0x15b3ca3ac92fea1f,
	"rmat14/p64/r1/async-delta/multi":    0xa86f5fab5357f35c,
	"rmat14/p64/r2/sync/single":          0x04acddd2f54c5c43,
	"rmat14/p64/r2/sync/multi":           0xab4de60eaa36ceb2,
	"rmat14/p64/r2/async-delta/single":   0x04acddd2f54c5c43,
	"rmat14/p64/r2/async-delta/multi":    0xab4de60eaa36ceb2,
	"rmat14/p64/r4/sync/single":          0x94db7fe51311ea8d,
	"rmat14/p64/r4/sync/multi":           0x7b2769d7cdf40f33,
	"rmat14/p64/r4/async-delta/single":   0x94db7fe51311ea8d,
	"rmat14/p64/r4/async-delta/multi":    0x7b2769d7cdf40f33,
	"rmat14/p256/r1/sync/single":         0x62b69870761a7bc0,
	"rmat14/p256/r1/sync/multi":          0x0c7f8fd7770b4aec,
	"rmat14/p256/r1/async-delta/single":  0x62b69870761a7bc0,
	"rmat14/p256/r1/async-delta/multi":   0x0c7f8fd7770b4aec,
	"rmat14/p256/r2/sync/single":         0x8a8ac6df88a84db7,
	"rmat14/p256/r2/sync/multi":          0x6b86b1c02ffe5086,
	"rmat14/p256/r2/async-delta/single":  0x8a8ac6df88a84db7,
	"rmat14/p256/r2/async-delta/multi":   0x6b86b1c02ffe5086,
	"rmat14/p256/r4/sync/single":         0xa6240c0d7df3e6b3,
	"rmat14/p256/r4/sync/multi":          0xe3453bd8fd5ae44b,
	"rmat14/p256/r4/async-delta/single":  0xa6240c0d7df3e6b3,
	"rmat14/p256/r4/async-delta/multi":   0xe3453bd8fd5ae44b,
	"chunglu/p2/r1/sync/single":          0x5b3182d6bde51f25,
	"chunglu/p2/r1/sync/multi":           0xe992c3ffb6b1ed85,
	"chunglu/p2/r1/async-delta/single":   0x5b3182d6bde51f25,
	"chunglu/p2/r1/async-delta/multi":    0xe992c3ffb6b1ed85,
	"chunglu/p2/r2/sync/single":          0x6b129bc9d0747d84,
	"chunglu/p2/r2/sync/multi":           0x322f4cb5b1894a15,
	"chunglu/p2/r2/async-delta/single":   0x6b129bc9d0747d84,
	"chunglu/p2/r2/async-delta/multi":    0x322f4cb5b1894a15,
	"chunglu/p2/r4/sync/single":          0xc6cc2a3e0b897c25,
	"chunglu/p2/r4/sync/multi":           0x479f1f0da38f0555,
	"chunglu/p2/r4/async-delta/single":   0xc6cc2a3e0b897c25,
	"chunglu/p2/r4/async-delta/multi":    0x479f1f0da38f0555,
	"chunglu/p8/r1/sync/single":          0xbdc11673104b4aa7,
	"chunglu/p8/r1/sync/multi":           0xdad5fbcc99e6a227,
	"chunglu/p8/r1/async-delta/single":   0xbdc11673104b4aa7,
	"chunglu/p8/r1/async-delta/multi":    0xdad5fbcc99e6a227,
	"chunglu/p8/r2/sync/single":          0x8f717c4addb754f1,
	"chunglu/p8/r2/sync/multi":           0xc8e5feb1eeed6e75,
	"chunglu/p8/r2/async-delta/single":   0x8f717c4addb754f1,
	"chunglu/p8/r2/async-delta/multi":    0xc8e5feb1eeed6e75,
	"chunglu/p8/r4/sync/single":          0x3313d700ae8adb21,
	"chunglu/p8/r4/sync/multi":           0x597565a9b8cb3844,
	"chunglu/p8/r4/async-delta/single":   0x3313d700ae8adb21,
	"chunglu/p8/r4/async-delta/multi":    0x597565a9b8cb3844,
	"chunglu/p64/r1/sync/single":         0x8605a9591d6e6140,
	"chunglu/p64/r1/sync/multi":          0x80e81fccd490a88f,
	"chunglu/p64/r1/async-delta/single":  0x8605a9591d6e6140,
	"chunglu/p64/r1/async-delta/multi":   0x80e81fccd490a88f,
	"chunglu/p64/r2/sync/single":         0x891834979ca34337,
	"chunglu/p64/r2/sync/multi":          0x7089722b4370584f,
	"chunglu/p64/r2/async-delta/single":  0x891834979ca34337,
	"chunglu/p64/r2/async-delta/multi":   0x7089722b4370584f,
	"chunglu/p64/r4/sync/single":         0xf0876583bd0c9f3c,
	"chunglu/p64/r4/sync/multi":          0x02dd107cb97d73b2,
	"chunglu/p64/r4/async-delta/single":  0xf0876583bd0c9f3c,
	"chunglu/p64/r4/async-delta/multi":   0x02dd107cb97d73b2,
	"chunglu/p256/r1/sync/single":        0xb56d94b68222b171,
	"chunglu/p256/r1/sync/multi":         0x77c4ef6b1d319b59,
	"chunglu/p256/r1/async-delta/single": 0xb56d94b68222b171,
	"chunglu/p256/r1/async-delta/multi":  0x77c4ef6b1d319b59,
	"chunglu/p256/r2/sync/single":        0x1a62f767b7554447,
	"chunglu/p256/r2/sync/multi":         0x8554edba151f1faf,
	"chunglu/p256/r2/async-delta/single": 0x1a62f767b7554447,
	"chunglu/p256/r2/async-delta/multi":  0x8554edba151f1faf,
	"chunglu/p256/r4/sync/single":        0xff8dde1421b38777,
	"chunglu/p256/r4/sync/multi":         0xac52900beb64f727,
	"chunglu/p256/r4/async-delta/single": 0xff8dde1421b38777,
	"chunglu/p256/r4/async-delta/multi":  0xac52900beb64f727,
	"grid16/p2/r1/sync/single":           0xdb5b10ce85f4e325,
	"grid16/p2/r1/sync/multi":            0xdb5b10ce85f4e325,
	"grid16/p2/r1/async-delta/single":    0xdb5b10ce85f4e325,
	"grid16/p2/r1/async-delta/multi":     0xdb5b10ce85f4e325,
	"grid16/p2/r2/sync/single":           0x62c39f9f742eb1e4,
	"grid16/p2/r2/sync/multi":            0x62c39f9f742eb1e4,
	"grid16/p2/r2/async-delta/single":    0x62c39f9f742eb1e4,
	"grid16/p2/r2/async-delta/multi":     0x62c39f9f742eb1e4,
	"grid16/p2/r4/sync/single":           0x7d8c02073490d035,
	"grid16/p2/r4/sync/multi":            0x7d8c02073490d035,
	"grid16/p2/r4/async-delta/single":    0x7d8c02073490d035,
	"grid16/p2/r4/async-delta/multi":     0x7d8c02073490d035,
	"grid16/p8/r1/sync/single":           0x0645515d7bbc7d86,
	"grid16/p8/r1/sync/multi":            0x4da9a7eef00d7963,
	"grid16/p8/r1/async-delta/single":    0x0645515d7bbc7d86,
	"grid16/p8/r1/async-delta/multi":     0x4da9a7eef00d7963,
	"grid16/p8/r2/sync/single":           0x410545cc52d516b6,
	"grid16/p8/r2/sync/multi":            0x68d06b0e4173fe51,
	"grid16/p8/r2/async-delta/single":    0x410545cc52d516b6,
	"grid16/p8/r2/async-delta/multi":     0x68d06b0e4173fe51,
	"grid16/p8/r4/sync/single":           0x74dcb44ff0898d93,
	"grid16/p8/r4/sync/multi":            0xb98b9c049bc5cd71,
	"grid16/p8/r4/async-delta/single":    0x74dcb44ff0898d93,
	"grid16/p8/r4/async-delta/multi":     0xb98b9c049bc5cd71,
	"grid16/p64/r1/sync/single":          0x0fb3ae4146f950d0,
	"grid16/p64/r1/sync/multi":           0x58856d2851dd342f,
	"grid16/p64/r1/async-delta/single":   0x0fb3ae4146f950d0,
	"grid16/p64/r1/async-delta/multi":    0x58856d2851dd342f,
	"grid16/p64/r2/sync/single":          0xcd5b2104f7aec016,
	"grid16/p64/r2/sync/multi":           0x8c39e27da323d05d,
	"grid16/p64/r2/async-delta/single":   0xcd5b2104f7aec016,
	"grid16/p64/r2/async-delta/multi":    0x8c39e27da323d05d,
	"grid16/p64/r4/sync/single":          0x0e923c719a19cbe1,
	"grid16/p64/r4/sync/multi":           0xa0fff156bdc570a6,
	"grid16/p64/r4/async-delta/single":   0x0e923c719a19cbe1,
	"grid16/p64/r4/async-delta/multi":    0xa0fff156bdc570a6,
	"grid16/p256/r1/sync/single":         0x3cae0b96b5f5989a,
	"grid16/p256/r1/sync/multi":          0xfb59feb0ad1b5293,
	"grid16/p256/r1/async-delta/single":  0x3cae0b96b5f5989a,
	"grid16/p256/r1/async-delta/multi":   0xfb59feb0ad1b5293,
	"grid16/p256/r2/sync/single":         0x00744f9b5c1eeb37,
	"grid16/p256/r2/sync/multi":          0xf9304205dd40fda9,
	"grid16/p256/r2/async-delta/single":  0x00744f9b5c1eeb37,
	"grid16/p256/r2/async-delta/multi":   0xf9304205dd40fda9,
	"grid16/p256/r4/sync/single":         0x6505de56b2659747,
	"grid16/p256/r4/sync/multi":          0xd3627c2857bfbd58,
	"grid16/p256/r4/async-delta/single":  0x6505de56b2659747,
	"grid16/p256/r4/async-delta/multi":   0xd3627c2857bfbd58,
}
