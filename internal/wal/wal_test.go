package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tieredpricing/internal/faultinject"
	"tieredpricing/internal/framelog"
	"tieredpricing/internal/netflow"
)

// testPacket builds a small deterministic export packet whose contents
// vary with i, so replayed entries can be matched to appended ones.
func testPacket(i int) (netflow.Header, []netflow.Record) {
	h := netflow.Header{
		Count:            2,
		SysUptime:        uint32(1000 + i),
		UnixSecs:         uint32(1700000000 + i),
		FlowSequence:     uint32(i * 2),
		SamplingInterval: 10,
	}
	recs := []netflow.Record{
		{
			SrcAddr: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			DstAddr: netip.AddrFrom4([4]byte{192, 168, 1, byte(i)}),
			NextHop: netip.AddrFrom4([4]byte{10, 255, 0, 1}),
			Octets:  uint32(1000 + i),
			Packets: 3,
			SrcPort: uint16(1024 + i%1000),
			DstPort: 443,
			Proto:   6,
			First:   uint32(i),
			Last:    uint32(i + 5),
			SrcAS:   uint16(i),
		},
		{
			SrcAddr: netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}),
			DstAddr: netip.AddrFrom4([4]byte{172, 16, 0, byte(i)}),
			NextHop: netip.AddrFrom4([4]byte{10, 255, 0, 2}),
			Octets:  uint32(500 + i),
			Packets: 1,
			SrcPort: 80,
			DstPort: uint16(2048 + i%1000),
			Proto:   17,
			First:   uint32(i + 1),
			Last:    uint32(i + 2),
			SrcAS:   uint16(i + 1),
		},
	}
	return h, recs
}

// frameSize is the on-disk size of one testPacket frame: frame header,
// timestamp, and a 2-record v5 packet.
const frameSize = framelog.HeaderSize + tsSize + netflow.HeaderSize + 2*netflow.RecordSize

type entry struct {
	ts   time.Time
	h    netflow.Header
	recs []netflow.Record
}

// appendN opens a log in dir, appends n entries, and closes it.
func appendN(t *testing.T, dir string, opts Options, n int) []entry {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]entry, 0, n)
	base := time.Unix(1700000000, 0)
	for i := 0; i < n; i++ {
		h, recs := testPacket(i)
		ts := base.Add(time.Duration(i) * time.Second)
		if err := l.Append(ts, h, recs); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		entries = append(entries, entry{ts, h, recs})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// collect replays dir from pos and returns the delivered entries.
func collect(t *testing.T, dir string, pos Position) ([]entry, ReplayResult) {
	t.Helper()
	var got []entry
	res, err := Replay(dir, pos, func(ts time.Time, h netflow.Header, recs []netflow.Record) error {
		cp := make([]netflow.Record, len(recs))
		copy(cp, recs)
		got = append(got, entry{ts, h, cp})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func checkEntries(t *testing.T, got, want []entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].ts.Equal(want[i].ts) {
			t.Fatalf("entry %d: ts %v, want %v", i, got[i].ts, want[i].ts)
		}
		if got[i].h != want[i].h {
			t.Fatalf("entry %d: header %+v, want %+v", i, got[i].h, want[i].h)
		}
		if !reflect.DeepEqual(got[i].recs, want[i].recs) {
			t.Fatalf("entry %d: records diverge", i)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := appendN(t, dir, Options{}, 25)
	got, res := collect(t, dir, Position{})
	checkEntries(t, got, want)
	if res.Torn {
		t.Error("clean log reported torn")
	}
	if res.Entries != 25 {
		t.Errorf("res.Entries = %d, want 25", res.Entries)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// ~160-byte frames against a 512-byte segment bound forces rotation
	// every few entries.
	want := appendN(t, dir, Options{SegmentBytes: 512}, 40)
	segs, err := framelog.ListSeq(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	got, res := collect(t, dir, Position{})
	checkEntries(t, got, want)

	// TruncateBefore with a position at the head of segment segs[2] must
	// delete only whole earlier segments; everything from that segment
	// on replays intact.
	l, err := OpenAt(dir, Options{SegmentBytes: 512}, res.End)
	if err != nil {
		t.Fatal(err)
	}
	cut := Position{Segment: segs[2], Offset: 0}
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := framelog.ListSeq(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != segs[2] {
		t.Fatalf("oldest surviving segment %d, want %d", after[0], segs[2])
	}
	got2, res2 := collect(t, dir, cut)
	if res2.Torn {
		t.Error("post-truncate replay reported torn")
	}
	// The surviving entries must be a proper suffix of the original
	// sequence.
	if len(got2) == 0 || len(got2) >= len(want) {
		t.Fatalf("post-truncate replay has %d entries, want a proper suffix of %d", len(got2), len(want))
	}
	checkEntries(t, got2, want[len(want)-len(got2):])
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncBatch, SyncAlways, SyncNone} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			want := appendN(t, dir, Options{Sync: mode}, 10)
			got, _ := collect(t, dir, Position{})
			checkEntries(t, got, want)
		})
	}
}

// TestBatchSyncerRacesRotation: the group-commit syncer fsyncs outside
// the log mutex, so it can be overtaken by a rotation or by Close. Many
// appenders through many rotations must lose no entry and count no sync
// error — a rotated or closed segment was fsynced by whoever closed it.
func TestBatchSyncerRacesRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncBatch, SegmentBytes: 4 * frameSize})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, each = 4, 600
	base := time.Unix(1700000000, 0)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n := g*each + i
				h, recs := testPacket(n)
				if err := l.Append(base.Add(time.Duration(n)*time.Second), h, recs); err != nil {
					t.Errorf("append %d: %v", n, err)
					return
				}
				if i%50 == 0 {
					time.Sleep(batchWindow) // let the syncer take a turn mid-stream
				}
			}
		}(g)
	}
	// Extra syncer turns with no batch window between them, so that some
	// are overtaken between picking the segment and fsyncing it.
	stop, hammered := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(hammered)
		for {
			select {
			case <-stop:
				return
			default:
				l.syncBatch()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-hammered
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SyncErrors != 0 {
		t.Errorf("SyncErrors = %d, want 0", st.SyncErrors)
	}
	if st.Segment < appenders*each/5 {
		t.Fatalf("log ended on segment %d: the run did not rotate as intended", st.Segment)
	}
	got, res := collect(t, dir, Position{})
	if res.Torn || len(got) != appenders*each {
		t.Fatalf("replayed %d entries (torn %v), want %d", len(got), res.Torn, appenders*each)
	}
	seen := make(map[int64]bool, len(got))
	for _, e := range got {
		seen[e.ts.Unix()-base.Unix()] = true
	}
	if len(seen) != appenders*each {
		t.Fatalf("replay delivered %d distinct entries, want %d", len(seen), appenders*each)
	}
}

func TestParseSyncMode(t *testing.T) {
	for in, want := range map[string]SyncMode{"batch": SyncBatch, "always": SyncAlways, "none": SyncNone} {
		got, err := ParseSyncMode(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Error("ParseSyncMode accepted garbage")
	}
}

// lastSegmentPath returns the newest segment file.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := framelog.ListSeq(dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return segmentPath(dir, segs[len(segs)-1])
}

// appendRaw writes one well-formed frame around payload at the end of
// the newest segment: damage no CRC catches.
func appendRaw(t *testing.T, dir string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(lastSegmentPath(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := append(framelog.AppendHeader(nil), payload...)
	framelog.Seal(frame, 0)
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailTruncation pins what the log does with a damaged newest
// segment — which byte-level damage ends the valid prefix where is
// internal/framelog's table; here each case stands for a class. Recovery
// must (a) keep exactly the undamaged prefix, (b) report the tear, and
// (c) leave the log appendable with the new entries visible to a clean
// second replay. The last two cases are frames whose CRC is right and
// whose contents this writer never produces.
func TestTornTailTruncation(t *testing.T) {
	const n = 12
	inj := faultinject.New(4242)
	cases := []struct {
		name string
		// corrupt damages the newest segment; returns how many entries
		// must survive, or -1 for "fewer than n".
		corrupt func(t *testing.T, dir string) int
	}{
		{"torn-payload", func(t *testing.T, dir string) int {
			path := lastSegmentPath(t, dir)
			fi, _ := os.Stat(path)
			if err := os.Truncate(path, fi.Size()-40); err != nil {
				t.Fatal(err)
			}
			return n - 1
		}},
		{"crc-bit-flip", func(t *testing.T, dir string) int {
			// Flip a bit somewhere in the last quarter of the file: every
			// frame at or after the flip is discarded.
			path := lastSegmentPath(t, dir)
			fi, _ := os.Stat(path)
			hit, err := inj.NewSite(2).CorruptByte(path, fi.Size()*3/4)
			if err != nil || !hit {
				t.Fatalf("CorruptByte: hit=%v err=%v", hit, err)
			}
			return -1
		}},
		{"framed-garbage-packet", func(t *testing.T, dir string) int {
			appendRaw(t, dir, bytes.Repeat([]byte{0xee}, frameSize))
			return n
		}},
		{"framed-short-payload", func(t *testing.T, dir string) int {
			appendRaw(t, dir, make([]byte, tsSize+netflow.HeaderSize-1))
			return n
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := appendN(t, dir, Options{}, n)
			survive := tc.corrupt(t, dir)

			got, res := collect(t, dir, Position{})
			if survive >= 0 && len(got) != survive || survive < 0 && len(got) >= n {
				t.Fatalf("%d entries survived, want %d (-1: fewer than %d)", len(got), survive, n)
			}
			if !res.Torn {
				t.Error("replay did not report the tear")
			}
			checkEntries(t, got, want[:len(got)])

			// The log must remain appendable at the recovered end, and the
			// new entry must follow the surviving prefix seamlessly.
			l, err := OpenAt(dir, Options{}, res.End)
			if err != nil {
				t.Fatal(err)
			}
			h, recs := testPacket(1000)
			ts := time.Unix(1800000000, 0)
			if err := l.Append(ts, h, recs); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got2, res2 := collect(t, dir, Position{})
			if res2.Torn {
				t.Error("second replay still torn after OpenAt truncation")
			}
			checkEntries(t, got2, append(append([]entry{}, want[:len(got)]...), entry{ts, h, recs}))
		})
	}
}

// TestCorruptionMidSegmentDiscardsLaterSegments pins the contiguous-
// prefix rule: damage in an early segment discards every later segment,
// even intact ones — a hole in the log would otherwise let replay
// fabricate a state the live window never held.
// segments lists dir's WAL segment numbers.
func segments(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, err := framelog.ListSeq(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestTruncateBeforeKeepsCheckpointSegment pins TruncateBefore's keep
// boundary: a checkpoint that points into the middle of segment 4 keeps
// segment 4 whole, deletes 1–3, and replays from its position exactly the
// entries after it; a position past the end never deletes the segment
// being written.
func TestTruncateBeforeKeepsCheckpointSegment(t *testing.T) {
	const perSeg = 4 // 40 entries in 512-byte segments: segments 1..10
	dir := t.TempDir()
	want := appendN(t, dir, Options{SegmentBytes: 512}, 40)
	l, err := OpenAt(dir, Options{SegmentBytes: 512}, Position{Segment: 10, Offset: perSeg * frameSize})
	if err != nil {
		t.Fatal(err)
	}
	cut := Position{Segment: 4, Offset: 2 * frameSize}
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, dir); !reflect.DeepEqual(segs, []uint64{4, 5, 6, 7, 8, 9, 10}) {
		t.Fatalf("segments after TruncateBefore(%+v): %v, want 4..10", cut, segs)
	}
	got, res := collect(t, dir, cut)
	checkEntries(t, got, want[3*perSeg+2:])
	if res.Torn {
		t.Error("replay from the checkpoint reported torn")
	}

	if err := l.TruncateBefore(Position{Segment: 99}); err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, dir); !reflect.DeepEqual(segs, []uint64{10}) {
		t.Fatalf("segments after TruncateBefore past the end: %v, want the active 10 alone", segs)
	}
	h, recs := testPacket(40)
	ts := time.Unix(1700000040, 0)
	if err := l.Append(ts, h, recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ = collect(t, dir, Position{Segment: 10})
	checkEntries(t, got, append(want[9*perSeg:], entry{ts, h, recs}))
}

// TestOpenAtDropsSegmentsBeyondRecoveryPoint pins OpenAt's rule that the
// log resumes exactly at the recovery point: opened in the middle of
// segment 4, segments 5..10 are deleted and segment 4 is cut back, so the
// next append follows the recovered prefix and nothing after it replays.
func TestOpenAtDropsSegmentsBeyondRecoveryPoint(t *testing.T) {
	const perSeg = 4
	dir := t.TempDir()
	want := appendN(t, dir, Options{SegmentBytes: 512}, 40)
	pos := Position{Segment: 4, Offset: 2 * frameSize}
	l, err := OpenAt(dir, Options{SegmentBytes: 512}, pos)
	if err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, dir); !reflect.DeepEqual(segs, []uint64{1, 2, 3, 4}) {
		t.Fatalf("segments after OpenAt(%+v): %v, want 1..4", pos, segs)
	}
	h, recs := testPacket(100)
	ts := time.Unix(1700000100, 0)
	if err := l.Append(ts, h, recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, dir, Position{})
	checkEntries(t, got, append(want[:3*perSeg+2:3*perSeg+2], entry{ts, h, recs}))
	if res.Torn || res.End != (Position{Segment: 4, Offset: 3 * frameSize}) {
		t.Errorf("Torn %v End %+v, want a clean end after the new entry", res.Torn, res.End)
	}
}

func TestCorruptionMidSegmentDiscardsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, Options{SegmentBytes: 512}, 40)
	segs, err := framelog.ListSeq(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need 3+ segments, got %d", len(segs))
	}
	// Corrupt the FIRST segment's second frame.
	first := segmentPath(dir, segs[0])
	f, err := os.OpenFile(first, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad}, 170); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, res := collect(t, dir, Position{})
	if !res.Torn {
		t.Fatal("mid-log corruption not reported torn")
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d entries past corruption, want 1", len(got))
	}
	if res.End.Segment != segs[0] {
		t.Fatalf("replay end in segment %d, want %d", res.End.Segment, segs[0])
	}
}

// TestReplayStopsAtSegmentGap: a missing segment ends the log wherever
// it is. Frames after a hole are not a continuation of the state before
// it, so they must not replay — not after a gap in the middle, and not
// when the segment a checkpoint points into is itself the one missing,
// which is an error rather than an empty replay: OpenAt at that position
// would delete the segments that survive. Only the zero Position (no
// checkpoint) takes whatever head survives.
func TestReplayStopsAtSegmentGap(t *testing.T) {
	// 40 entries at 4 frames per 512-byte segment: segments 1..10.
	const perSeg = 4
	for _, tc := range []struct {
		name     string
		remove   uint64
		from     Position
		from2, n int // the entries delivered: want[from2 : from2+n]
		torn     bool
		end      Position
		err      string // the refusal, when the gap is at a checkpoint's head
	}{
		{"mid-log", 2, Position{}, 0, perSeg, true, Position{Segment: 1, Offset: perSeg * frameSize}, ""},
		{"head-of-range", 2, Position{Segment: 2}, 0, 0, false, Position{Segment: 2},
			"replay starts in segment 2, which is missing, but segment 3 survives"},
		{"head-no-checkpoint", 1, Position{}, perSeg, 40 - perSeg, false, Position{Segment: 10, Offset: perSeg * frameSize}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := appendN(t, dir, Options{SegmentBytes: 512}, 40)
			if err := os.Remove(segmentPath(dir, tc.remove)); err != nil {
				t.Fatal(err)
			}
			if tc.err != "" {
				// Nothing may replay, and the error names both segments.
				res, err := Replay(dir, tc.from, func(time.Time, netflow.Header, []netflow.Record) error {
					t.Fatal("replayed an entry past the missing head segment")
					return nil
				})
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Replay error %v, want %q", err, tc.err)
				}
				if res.Entries != 0 || res.End != tc.end {
					t.Errorf("result %+v, want no entries and End %+v", res, tc.end)
				}
				return
			}
			got, res := collect(t, dir, tc.from)
			checkEntries(t, got, want[tc.from2:tc.from2+tc.n])
			if res.Torn != tc.torn || res.End != tc.end {
				t.Errorf("Torn %v End %+v, want %v %+v", res.Torn, res.End, tc.torn, tc.end)
			}
		})
	}
}

// TestParentFixture opens a log written by the commit before the WAL was
// rebuilt on internal/framelog (two segments, the second torn mid-frame)
// and holds the rebuilt package to what that commit's Replay returned
// (expected.json) and to the bytes it wrote.
func TestParentFixture(t *testing.T) {
	const fixture = "testdata/parent-torn-tail"
	var want struct {
		Entries []struct {
			TS   int64            `json:"ts_unix_nano"`
			H    netflow.Header   `json:"header"`
			Recs []netflow.Record `json:"records"`
		} `json:"entries"`
		Result ReplayResult `json:"result"`
	}
	raw, err := os.ReadFile(filepath.Join(fixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, fixture, Position{})
	if res != want.Result {
		t.Fatalf("replay result %+v, the parent's was %+v", res, want.Result)
	}
	if len(got) != len(want.Entries) {
		t.Fatalf("replayed %d entries, the parent replayed %d", len(got), len(want.Entries))
	}
	for i, w := range want.Entries {
		if got[i].ts.UnixNano() != w.TS || got[i].h != w.H || !reflect.DeepEqual(got[i].recs, w.Recs) {
			t.Fatalf("entry %d diverges from the parent's replay", i)
		}
	}
	// Re-appending what was read reproduces the fixture's bytes: whole
	// segment 1, and segment 2 up to the tear.
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range got {
		if err := l.Append(e.ts, e.h, e.recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for seq, n := range map[uint64]int64{1: -1, 2: res.End.Offset} {
		old, err := os.ReadFile(segmentPath(fixture, seq))
		if err != nil {
			t.Fatal(err)
		}
		if n >= 0 {
			old = old[:n]
		}
		if fresh, _ := os.ReadFile(segmentPath(dir, seq)); !bytes.Equal(fresh, old) {
			t.Fatalf("segment %d re-encodes to different bytes than the parent wrote", seq)
		}
	}
}

func TestReplayCallbackErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	appendN(t, dir, Options{}, 3)
	sentinel := fmt.Errorf("boom")
	_, err := Replay(dir, Position{}, func(time.Time, netflow.Header, []netflow.Record) error {
		return sentinel
	})
	if err == nil {
		t.Fatal("callback error swallowed")
	}
}

func TestReplayEmptyAndMissingDir(t *testing.T) {
	got, res := collect(t, filepath.Join(t.TempDir(), "nonesuch"), Position{})
	if len(got) != 0 || res.Torn || res.Entries != 0 {
		t.Fatalf("missing dir: %d entries, torn=%v", len(got), res.Torn)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	want := appendN(t, dir, Options{}, 5)
	path := lastSegmentPath(t, dir)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	// Open (not OpenAt) must scan, drop the torn final frame, and resume.
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, dir, Position{})
	if res.Torn {
		t.Error("tail still torn after Open")
	}
	checkEntries(t, got, want[:4])
	if want := res.End.Offset; fi.Size() != want {
		t.Errorf("file size %d after Open, want %d", fi.Size(), want)
	}
}

func TestStatsAndPos(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h, recs := testPacket(0)
	for i := 0; i < 4; i++ {
		if err := l.Append(time.Unix(int64(i), 0), h, recs); err != nil {
			t.Fatal(err)
		}
	}
	s := l.Stats()
	if s.Entries != 4 || s.Fsyncs != 4 || s.Bytes == 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.FsyncP99Ns <= 0 || s.FsyncSumNs <= 0 {
		t.Errorf("fsync latency summary empty: %+v", s)
	}
	if s.FsyncP50Ns > s.FsyncP99Ns || s.FsyncP99Ns > s.FsyncMaxNs || float64(s.FsyncMaxNs) > s.FsyncSumNs {
		t.Errorf("fsync latency summary out of order (want p50 ≤ p99 ≤ max ≤ sum): %+v", s)
	}
	pos := l.Pos()
	if pos.Segment != 1 || pos.Offset != int64(s.Bytes) {
		t.Errorf("pos = %+v, stats bytes %d", pos, s.Bytes)
	}
	if !(Position{1, 0}).Before(pos) || pos.Before(Position{1, 0}) {
		t.Error("Position.Before inconsistent")
	}
}

// TestFailedAppendHidesNoLaterAppend: frame 2 of 5 is half-written when
// its write fails. The append reports the failure, the log counts only
// whole frames, and the next frame overwrites the partial one, so replay
// returns frames 1, 3, 4 and 5 — not frame 1 alone, as it would if the
// later frames followed the torn one.
func TestFailedAppendHidesNoLaterAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	l.write = func(f *os.File, b []byte, off int64) (int, error) {
		if calls++; calls == 2 {
			n, _ := f.WriteAt(b[:len(b)/2], off)
			return n, syscall.ENOSPC
		}
		return f.WriteAt(b, off)
	}
	var want []entry
	base := time.Unix(1700000000, 0)
	for i := 0; i < 5; i++ {
		h, recs := testPacket(i)
		ts := base.Add(time.Duration(i) * time.Second)
		err := l.Append(ts, h, recs)
		if i == 1 {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("append 2: %v, want ENOSPC", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
		want = append(want, entry{ts, h, recs})
	}
	if s := l.Stats(); s.Entries != 4 || s.Bytes != 4*frameSize || s.Offset != 4*frameSize {
		t.Errorf("stats after one failed append of five: %d entries, %d bytes, offset %d; want 4, %d, %d",
			s.Entries, s.Bytes, s.Offset, 4*frameSize, 4*frameSize)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := collect(t, dir, Position{})
	if res.Torn {
		t.Errorf("replay reports a torn log (%d bytes)", res.TornBytes)
	}
	checkEntries(t, got, want)
}
