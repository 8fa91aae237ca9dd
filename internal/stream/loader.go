package stream

import (
	"time"

	"tieredpricing/internal/netflow"
)

// A Loader's batches: loadBatchDgrams datagrams each, at most loadBatches
// of them in flight — one filling, the rest queued or being applied.
const (
	loadBatchDgrams = 32
	loadBatches     = 4
)

// Loader replays logged datagrams into a window on two goroutines, the
// two stages of ingest split between them. Add, on the caller's
// goroutine, copies a datagram into a batch and prepares its records;
// one applier goroutine applies the batches in the order Add filled
// them, so the window ends exactly as IngestAt over the same datagrams
// leaves it. Batches are allocated on first use and reused, so a
// replay's memory is bounded however long its log.
//
// A Loader serves one replay: Add from one goroutine, then Wait once.
// Nothing else may ingest into the window until Wait returns.
type Loader struct {
	w    *Window
	fill *loadBatch // the batch Add is filling, nil before the first
	made int        // batches allocated, at most loadBatches
	free chan *loadBatch
	full chan *loadBatch
	done chan struct{}
}

// loadBatch is up to loadBatchDgrams datagrams: every record, copied, and
// its prepared key, end to end, and where each datagram's records end.
type loadBatch struct {
	dgrams []loadDgram
	recs   []netflow.Record
	hks    []hashedKey
}

// loadDgram is one datagram of a batch: its slot, its header's sampling
// interval and the end of its records in the batch.
type loadDgram struct {
	cur      int64
	sampling uint16
	end      int
}

// NewLoader starts a replay into w.
func NewLoader(w *Window) *Loader {
	ld := &Loader{
		w:    w,
		free: make(chan *loadBatch, loadBatches),
		full: make(chan *loadBatch, loadBatches),
		done: make(chan struct{}),
	}
	go ld.apply()
	return ld
}

// Add takes one datagram that arrived at ts. It has wal.Replay's callback
// signature and never fails; recs may be reused once it returns.
func (ld *Loader) Add(ts time.Time, h netflow.Header, recs []netflow.Record) error {
	b := ld.fill
	if b != nil && (len(b.dgrams) == loadBatchDgrams || len(b.recs)+len(recs) > cap(b.recs)) {
		ld.full <- b
		b = nil
	}
	if b == nil {
		b = ld.batch()
		ld.fill = b
	}
	n := len(b.recs)
	b.recs = append(b.recs, recs...)
	b.hks = prepare(b.hks, b.recs[n:])
	b.dgrams = append(b.dgrams, loadDgram{cur: ld.w.slotIndex(ts), sampling: h.SamplingInterval, end: len(b.recs)})
	return nil
}

// batch returns an empty batch: a free one, a new one while fewer than
// loadBatches exist, or else the next the applier frees.
func (ld *Loader) batch() *loadBatch {
	select {
	case b := <-ld.free:
		return b
	default:
	}
	if ld.made < loadBatches {
		ld.made++
		const recs = loadBatchDgrams * netflow.MaxRecordsPerPacket
		return &loadBatch{
			dgrams: make([]loadDgram, 0, loadBatchDgrams),
			recs:   make([]netflow.Record, 0, recs),
			hks:    make([]hashedKey, 0, recs),
		}
	}
	return <-ld.free
}

// Wait hands the applier the last batch and returns once every datagram
// Add took is in the window.
func (ld *Loader) Wait() {
	if ld.fill != nil {
		ld.full <- ld.fill
		ld.fill = nil
	}
	close(ld.full)
	<-ld.done
}

// apply is the applier goroutine: each batch under one hold of the
// window's lock, datagram by datagram, then back to the free list.
func (ld *Loader) apply() {
	defer close(ld.done)
	for b := range ld.full {
		ld.w.mu.Lock()
		start := 0
		for _, d := range b.dgrams {
			ld.w.applyLocked(d.cur, d.sampling, b.recs[start:d.end], b.hks[start:d.end])
			start = d.end
		}
		ld.w.mu.Unlock()
		b.dgrams, b.recs, b.hks = b.dgrams[:0], b.recs[:0], b.hks[:0]
		ld.free <- b
	}
}
