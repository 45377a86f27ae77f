package query

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestExecStatsSnapshotConcurrent pins the atomiccheck fix in the
// executor: every read of a live ExecStats goes through Snapshot's
// atomic loads. The test shares one ExecStats between adder goroutines
// and a reader calling Snapshot in a loop;
// under -race a regression to a plain struct copy (*stats) is reported
// immediately, and without -race the final totals still verify that no
// increment was lost.
func TestExecStatsSnapshotConcurrent(t *testing.T) {
	var stats ExecStats
	const workers = 4
	const addsPerWorker = 10_000

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < addsPerWorker; i++ {
				atomic.AddInt64(&stats.RowsScanned, 1)
				atomic.AddInt64(&stats.RowsJoined, 2)
				atomic.AddInt64(&stats.RowsReturned, 1)
			}
		}()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		<-start
		prev := int64(-1)
		for i := 0; i < 2_000; i++ {
			snap := stats.Snapshot()
			// Each counter is monotonically nondecreasing; a torn or
			// non-atomic read can run backwards.
			if snap.RowsScanned < prev {
				t.Errorf("RowsScanned went backwards: %d after %d", snap.RowsScanned, prev)
				return
			}
			prev = snap.RowsScanned
		}
	}()
	close(start)
	wg.Wait()
	<-readerDone

	final := stats.Snapshot()
	if want := int64(workers * addsPerWorker); final.RowsScanned != want {
		t.Fatalf("RowsScanned = %d, want %d", final.RowsScanned, want)
	}
	if want := int64(workers * addsPerWorker * 2); final.RowsJoined != want {
		t.Fatalf("RowsJoined = %d, want %d", final.RowsJoined, want)
	}
	if want := int64(workers * addsPerWorker); final.RowsReturned != want {
		t.Fatalf("RowsReturned = %d, want %d", final.RowsReturned, want)
	}
}
