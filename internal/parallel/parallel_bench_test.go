package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkParallelForOverhead measures fork-join cost for trivially cheap
// bodies, across worker counts and schedules — the constant the pipeline
// pays per parallel region.
func BenchmarkParallelForOverhead(b *testing.B) {
	const n = 1024
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("static/w=%d", workers), func(b *testing.B) {
			var sink atomic.Int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ParallelFor(n, workers, func(j int) error {
					sink.Add(int64(j))
					return nil
				})
			}
		})
		b.Run(fmt.Sprintf("dynamic/w=%d", workers), func(b *testing.B) {
			var sink atomic.Int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ParallelForDynamic(n, workers, 16, func(j int) error {
					sink.Add(int64(j))
					return nil
				})
			}
		})
	}
}

// BenchmarkTaskGroup measures task spawn + wait cost.
func BenchmarkTaskGroup(b *testing.B) {
	for _, tasks := range []int{4, 16, 64} {
		tasks := tasks
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := NewTaskGroup(4)
				for t := 0; t < tasks; t++ {
					g.Go(func() error { return nil })
				}
				if err := g.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
