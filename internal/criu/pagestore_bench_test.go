package criu

import (
	"sync"
	"testing"

	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/kernel"
)

// benchCloneSets builds n divergent clone checkpoints of the counter
// guest, ballasted with extra distinct pages so each deposit interns a
// realistic page count. The sets share most content, like a fleet's
// pristine checkpoints.
func benchCloneSets(b *testing.B, n int) []*ImageSet {
	b.Helper()
	m, p := loadCounter(b)

	const ballastPages = 64
	const ballastBase = uint64(0x4000_0000)
	if err := p.Mem().Map(kernel.VMA{
		Start: ballastBase, End: ballastBase + ballastPages*kernel.PageSize,
		Perm: delf.PermR | delf.PermW, Name: "ballast", Anon: true,
	}); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, kernel.PageSize)
	for i := 0; i < ballastPages; i++ {
		for j := range buf {
			buf[j] = byte(i) ^ byte(j)
		}
		if err := p.Mem().Write(ballastBase+uint64(i)*kernel.PageSize, buf); err != nil {
			b.Fatal(err)
		}
	}

	sets := make([]*ImageSet, n)
	for i := range sets {
		rm := m.Clone()
		rm.Run(uint64(100 * i))
		rp, err := rm.Process(p.PID())
		if err != nil {
			b.Fatal(err)
		}
		set, err := Dump(rm, rp.PID(), DumpOpts{ExecPages: true})
		if err != nil {
			b.Fatal(err)
		}
		set.Ident() // pre-compute outside the timed region
		sets[i] = set
	}
	return sets
}

// BenchmarkPageStoreParallelDeposit measures one fleet checkpoint
// deposit: every replica's set deposited concurrently into a fresh
// store.
func BenchmarkPageStoreParallelDeposit(b *testing.B) {
	sets := benchCloneSets(b, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store := NewPageStore()
		var wg sync.WaitGroup
		for _, set := range sets {
			wg.Add(1)
			go func(s *ImageSet) {
				defer wg.Done()
				if _, err := store.Deposit(s); err != nil {
					b.Error(err)
				}
			}(set)
		}
		wg.Wait()
	}
}

// BenchmarkPageStoreParallelMaterialize measures the read side: many
// workers re-materializing deposited checkpoints at once, the pristine
// rollback path when a halted wave restores replicas in parallel.
func BenchmarkPageStoreParallelMaterialize(b *testing.B) {
	sets := benchCloneSets(b, 32)
	store := NewPageStore()
	idents := make([]uint32, len(sets))
	for i, set := range sets {
		id, err := store.Deposit(set)
		if err != nil {
			b.Fatal(err)
		}
		idents[i] = id
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := store.Materialize(idents[i%len(idents)]); err != nil {
				b.Error(err)
			}
			i++
		}
	})
}
