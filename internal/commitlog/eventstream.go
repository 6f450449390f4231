package commitlog

import (
	"io"

	"repro/internal/trace"
)

// EventStream writes sync events to an io.Writer as one unsegmented store
// stream — the header, then events frames — through the Log's own event
// encoder and batch size, synchronously: no drain, segments or commits.
// It has no memory to describe, so its meta frame states the smallest
// geometry there is. Its only caller is bench/probes.go's journal probe,
// through journal.NewWriter; bench/ is frozen, and both go when that probe
// moves to Log.RecordEvent.
type EventStream struct {
	out   io.Writer
	batch []byte
	hdr   [frameHeaderLen]byte
	stats Stats
	err   error
}

// NewEventStream starts a stream on out with the store header.
func NewEventStream(out io.Writer, meta map[string]string) *EventStream {
	w := &EventStream{out: out}
	w.write(storeHeader(1, 1, meta))
	return w
}

// RecordEvent encodes one event, writing the batch out once it is full.
func (w *EventStream) RecordEvent(e trace.Event) {
	w.batch = appendEvent(w.batch, e)
	w.stats.Events++
	if len(w.batch) >= eventBatchBytes {
		w.flush()
	}
}

func (w *EventStream) flush() {
	if len(w.batch) > 0 {
		w.write(appendFrameHeader(w.hdr[:0], w.batch))
		w.write(w.batch)
		w.batch = w.batch[:0]
	}
}

func (w *EventStream) write(b []byte) {
	n, err := w.out.Write(b)
	w.stats.Bytes += int64(n)
	if w.err == nil {
		w.err = err
	}
}

// Stats reports the events recorded and the bytes written so far.
func (w *EventStream) Stats() Stats { return w.stats }

// Close writes the pending batch and returns the first write error.
func (w *EventStream) Close() error {
	w.flush()
	return w.err
}
