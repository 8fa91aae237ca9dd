package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
	"time"

	"tieredpricing/internal/framelog"
	"tieredpricing/internal/netflow"
)

// ReplayResult summarizes a Replay pass.
type ReplayResult struct {
	// Entries is the number of valid frames delivered to the callback.
	Entries int
	// End is the position just past the last valid frame — hand it to
	// OpenAt to resume appending on the recovered prefix.
	End Position
	// Torn reports that the scan stopped at an invalid frame (partial
	// write, CRC mismatch, or undecodable packet) rather than clean
	// end-of-log; TornBytes is how many trailing bytes were distrusted
	// in that segment (later segments are discarded whole and are not
	// counted).
	Torn      bool
	TornBytes int64
}

// Replay streams every valid entry at or after from through fn, in
// append order. Recovery semantics are contiguous-prefix: the scan
// stops at the first frame that fails validation — a torn final write,
// a corrupt length or CRC, an undecodable packet — or at the first
// missing segment, and everything from that point on, including all
// later segments, is excluded from the result. The one gap that is an
// error instead is at the head: a checkpoint's position (from.Segment >
// 0) whose segment is gone while newer ones survive. Replaying nothing
// from there would hand OpenAt a position that drops the surviving
// segments, so Replay refuses and names both. fn returning an error
// aborts the replay and propagates.
//
// The zero Position replays whatever head of the log survives. A missing
// directory or an empty log replays nothing and returns End == from (or
// the first segment's start).
//
// Every entry is decoded into one reused buffer: recs is valid only until
// fn returns, and fn must copy what it keeps.
func Replay(dir string, from Position, fn func(ts time.Time, h netflow.Header, recs []netflow.Record) error) (ReplayResult, error) {
	res := ReplayResult{End: from}
	if res.End.Segment == 0 {
		res.End = Position{Segment: 1, Offset: 0}
	}
	segs, err := framelog.ListSeq(dir, segPrefix, segSuffix)
	if err != nil {
		return res, err
	}
	segs = segs[sort.Search(len(segs), func(i int) bool { return segs[i] >= from.Segment }):]
	if from.Segment > 0 && len(segs) > 0 && segs[0] != from.Segment {
		return res, fmt.Errorf("wal: replay starts in segment %d, which is missing, but segment %d survives",
			from.Segment, segs[0])
	}
	for i, seq := range segs {
		off := int64(0)
		if seq == from.Segment {
			off = from.Offset
		}
		end, size, entries, err := scanSegment(dir, seq, off, fn)
		res.Entries += entries
		res.End = Position{Segment: seq, Offset: end}
		if err != nil {
			return res, err
		}
		if end < size {
			// Invalid frame mid-segment: the prefix up to `end` is the
			// log; the rest — and every later segment — is untrusted.
			res.Torn = true
			res.TornBytes = size - end
			return res, nil
		}
		if i < len(segs)-1 && segs[i+1] != seq+1 {
			// A gap in segment numbering means manual deletion; frames
			// after the gap are not a contiguous continuation.
			res.Torn = true
			return res, nil
		}
	}
	return res, nil
}

// scanSegment validates segment seq's frames from fromOffset, invoking
// fn (when non-nil) for each valid one. It returns the byte offset just
// past the last valid frame, the segment's size and the number of valid
// frames. On top of framelog.Scan's rule, a payload too short for a
// timestamp and a packet header, or one netflow.DecodePacketInto rejects,
// is a frame this writer never produced: corruption, a clean stop. Only
// I/O failures and fn errors propagate. Every frame is decoded into one
// buffer, reused.
func scanSegment(dir string, seq uint64, fromOffset int64, fn func(ts time.Time, h netflow.Header, recs []netflow.Record) error) (end, size int64, entries int, err error) {
	f, err := os.Open(segmentPath(dir, seq))
	if err != nil {
		return fromOffset, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fromOffset, 0, 0, err
	}
	buf := make([]netflow.Record, 0, netflow.MaxRecordsPerPacket)
	end, err = framelog.Scan(f, fromOffset, fi.Size(), MaxEntryBytes, func(_ int64, payload []byte) error {
		if len(payload) < tsSize+netflow.HeaderSize {
			return framelog.ErrCorrupt
		}
		h, recs, err := netflow.DecodePacketInto(payload[tsSize:], buf)
		if err != nil {
			return framelog.ErrCorrupt
		}
		if fn != nil {
			ts := time.Unix(0, int64(binary.BigEndian.Uint64(payload)))
			if err := fn(ts, h, recs); err != nil {
				return fmt.Errorf("wal: replay callback: %w", err)
			}
		}
		entries++
		return nil
	})
	return end, fi.Size(), entries, err
}
