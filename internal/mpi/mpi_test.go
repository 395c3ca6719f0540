package mpi

import (
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRunSpawnsAllRanks(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7, 16} {
		var seen int64
		ranks := make([]int32, p)
		Run(p, func(c *Comm) {
			atomic.AddInt64(&seen, 1)
			atomic.AddInt32(&ranks[c.Rank()], 1)
			if c.Size() != p {
				t.Errorf("Size() = %d, want %d", c.Size(), p)
			}
		})
		if seen != int64(p) {
			t.Fatalf("nprocs=%d: %d ranks ran", p, seen)
		}
		for r, n := range ranks {
			if n != 1 {
				t.Fatalf("nprocs=%d: rank %d ran %d times", p, r, n)
			}
		}
	}
}

func TestRunThreadsExposesBudget(t *testing.T) {
	RunThreads(3, 5, func(c *Comm) {
		if c.Threads() != 5 {
			t.Errorf("Threads() = %d, want 5", c.Threads())
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	const p = 8
	var phase atomic.Int64
	Run(p, func(c *Comm) {
		phase.Add(1)
		c.Barrier()
		// After the barrier every rank must observe all p increments.
		if got := phase.Load(); got != p {
			t.Errorf("rank %d saw phase=%d after barrier, want %d", c.Rank(), got, p)
		}
		c.Barrier()
	})
}

func TestBcast(t *testing.T) {
	const p = 5
	Run(p, func(c *Comm) {
		var data []int64
		if c.Rank() == 2 {
			data = []int64{10, 20, 30}
		}
		got := Bcast(c, 2, data)
		if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
			t.Errorf("rank %d Bcast got %v", c.Rank(), got)
		}
		// The received buffer must be a private copy.
		got[0] = int64(c.Rank()) * 1000
		c.Barrier()
		if c.Rank() == 2 && data[0] != 10 {
			t.Errorf("root buffer mutated through Bcast: %v", data)
		}
	})
}

func TestAllgather(t *testing.T) {
	const p = 6
	Run(p, func(c *Comm) {
		got := Allgatherv(c, []int64{int64(c.Rank()) * 10})
		for r := 0; r < p; r++ {
			if len(got[r]) != 1 || got[r][0] != int64(r)*10 {
				t.Errorf("rank %d Allgatherv[%d] = %v, want [%d]", c.Rank(), r, got[r], r*10)
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		// One element per rank pair: the MPI_Alltoall special case.
		send := make([]int64, p)
		ones := make([]int, p)
		for r := range send {
			send[r] = int64(c.Rank()*100 + r) // tagged (src, dst)
			ones[r] = 1
		}
		got, _ := Alltoallv(c, send, ones)
		for r := 0; r < p; r++ {
			want := int64(r*100 + c.Rank())
			if got[r] != want {
				t.Errorf("rank %d Alltoallv[%d] = %d, want %d", c.Rank(), r, got[r], want)
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		// Rank r sends r+1 copies of value r*10+dst to each destination.
		counts := make([]int, p)
		var buf []int64
		for dst := 0; dst < p; dst++ {
			n := c.Rank() + 1
			counts[dst] = n
			for k := 0; k < n; k++ {
				buf = append(buf, int64(c.Rank()*10+dst))
			}
		}
		recv, rc := Alltoallv(c, buf, counts)
		pos := 0
		for src := 0; src < p; src++ {
			if rc[src] != src+1 {
				t.Errorf("rank %d recvCounts[%d] = %d, want %d", c.Rank(), src, rc[src], src+1)
			}
			for k := 0; k < rc[src]; k++ {
				want := int64(src*10 + c.Rank())
				if recv[pos] != want {
					t.Errorf("rank %d recv[%d] = %d, want %d", c.Rank(), pos, recv[pos], want)
				}
				pos++
			}
		}
		if pos != len(recv) {
			t.Errorf("rank %d received %d elements, consumed %d", c.Rank(), len(recv), pos)
		}
	})
}

func TestAlltoallvEmpty(t *testing.T) {
	const p = 3
	Run(p, func(c *Comm) {
		recv, rc := Alltoallv[int64](c, nil, make([]int, p))
		if len(recv) != 0 {
			t.Errorf("rank %d received %d elements from empty exchange", c.Rank(), len(recv))
		}
		for _, n := range rc {
			if n != 0 {
				t.Errorf("rank %d nonzero recv count %d", c.Rank(), n)
			}
		}
	})
}

func TestAlltoallvValidatesCounts(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic for mismatched counts")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "Alltoallv") {
			t.Fatalf("unexpected panic payload %v", p)
		}
	}()
	Run(1, func(c *Comm) {
		Alltoallv(c, []int64{1, 2}, []int{1}) // counts sum to 1, the buffer holds 2
	})
}

func TestAllreduceSum(t *testing.T) {
	const p = 5
	Run(p, func(c *Comm) {
		vals := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
		got := Allreduce(c, vals, Sum)
		want0 := int64(0 + 1 + 2 + 3 + 4)
		want2 := int64(0 + 1 + 4 + 9 + 16)
		if got[0] != want0 || got[1] != p || got[2] != want2 {
			t.Errorf("rank %d Allreduce Sum = %v", c.Rank(), got)
		}
	})
}

func TestAllreduceMaxMin(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		got := Allreduce(c, []float64{float64(c.Rank())}, Max)
		if got[0] != 3 {
			t.Errorf("Max = %v, want 3", got[0])
		}
		gotMin := Allreduce(c, []float64{float64(c.Rank())}, Min)
		if gotMin[0] != 0 {
			t.Errorf("Min = %v, want 0", gotMin[0])
		}
	})
}

func TestAllreduceScalar(t *testing.T) {
	Run(6, func(c *Comm) {
		if got := AllreduceScalar(c, int64(1), Sum); got != 6 {
			t.Errorf("scalar sum = %d, want 6", got)
		}
	})
}

func TestPanicPropagatesFromRank(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("expected panic to propagate from rank")
		}
		if s, ok := p.(string); !ok || s != "rank boom" {
			t.Fatalf("unexpected panic payload: %v", p)
		}
	}()
	Run(4, func(c *Comm) {
		if c.Rank() == 2 {
			panic("rank boom")
		}
		// Other ranks park in a collective; poison must release them.
		c.Barrier()
		Allgatherv(c, []int64{1})
	})
}

func TestStatsCountTraffic(t *testing.T) {
	Run(3, func(c *Comm) {
		c.ResetStats()
		Allgatherv(c, []int64{1})
		Alltoallv(c, []int64{1, 2, 3}, []int{1, 1, 1})
		AllreduceScalar(c, int64(1), Sum)
		s := c.Stats()
		if s.Collectives != 3 {
			t.Errorf("Collectives = %d, want 3", s.Collectives)
		}
		if s.ExchangeOps != 1 || s.ReductionOps != 1 {
			t.Errorf("ExchangeOps=%d ReductionOps=%d, want 1,1", s.ExchangeOps, s.ReductionOps)
		}
		if s.ElemsSent == 0 || s.ElemsRecv == 0 {
			t.Errorf("traffic counters not advancing: %+v", s)
		}
	})
}

func TestCollectiveSequenceStress(t *testing.T) {
	// Many back-to-back collectives must not corrupt each other's slots.
	const p = 8
	Run(p, func(c *Comm) {
		for iter := 0; iter < 50; iter++ {
			v := Allgatherv(c, []int64{int64(c.Rank() + iter)})
			for r := 0; r < p; r++ {
				if v[r][0] != int64(r+iter) {
					t.Errorf("iter %d: Allgatherv[%d] = %v", iter, r, v[r])
					return
				}
			}
			total := AllreduceScalar(c, int64(1), Sum)
			if total != p {
				t.Errorf("iter %d: sum = %d", iter, total)
				return
			}
		}
	})
}

// Property: Alltoallv delivers exactly the elements sent, regardless of
// the (ragged) count matrix.
func TestQuickAlltoallvConservation(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw%6) + 1
		// counts[src][dst] derived deterministically from seed.
		counts := make([][]int, p)
		x := seed
		for s := range counts {
			counts[s] = make([]int, p)
			for d := range counts[s] {
				x = x*6364136223846793005 + 1442695040888963407
				counts[s][d] = int(x % 5)
			}
		}
		ok := true
		Run(p, func(c *Comm) {
			var buf []int64
			for dst := 0; dst < p; dst++ {
				for k := 0; k < counts[c.Rank()][dst]; k++ {
					buf = append(buf, int64(c.Rank()*1000+dst*10+k))
				}
			}
			recv, rc := Alltoallv(c, buf, counts[c.Rank()])
			pos := 0
			for src := 0; src < p; src++ {
				if rc[src] != counts[src][c.Rank()] {
					ok = false
					return
				}
				for k := 0; k < rc[src]; k++ {
					if recv[pos] != int64(src*1000+c.Rank()*10+k) {
						ok = false
						return
					}
					pos++
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAlltoallv8Ranks(b *testing.B) {
	const p = 8
	const perDst = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(p, func(c *Comm) {
			buf := make([]int64, p*perDst)
			counts := make([]int, p)
			for r := range counts {
				counts[r] = perDst
			}
			Alltoallv(c, buf, counts)
		})
	}
}

func TestAllgatherv(t *testing.T) {
	const p = 4
	Run(p, func(c *Comm) {
		mine := make([]int64, c.Rank()) // rank r contributes r elements
		for i := range mine {
			mine[i] = int64(c.Rank()*100 + i)
		}
		all := Allgatherv(c, mine)
		if len(all) != p {
			t.Errorf("got %d contributions", len(all))
			return
		}
		for r := 0; r < p; r++ {
			if len(all[r]) != r {
				t.Errorf("rank %d contribution has %d elements, want %d", r, len(all[r]), r)
				return
			}
			for i, v := range all[r] {
				if v != int64(r*100+i) {
					t.Errorf("all[%d][%d] = %d", r, i, v)
					return
				}
			}
		}
		// Mutating the received copy must not affect other ranks.
		if c.Rank() == 0 && len(all[1]) > 0 {
			all[1][0] = -1
		}
		c.Barrier()
	})
}
