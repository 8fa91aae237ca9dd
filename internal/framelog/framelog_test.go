package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tieredpricing/internal/faultinject"
)

// testMax is the payload bound the tests scan with.
const testMax = 4096

// frame returns one sealed frame around payload.
func frame(payload []byte) []byte {
	buf := append(AppendHeader(nil), payload...)
	Seal(buf, 0)
	return buf
}

// layout is a file of frames behind a lead-in (a stand-in for the magic
// string histstore files start with): starts[i] is where frame i begins
// and starts[len(payloads)] is the end of the file.
type layout struct {
	data     []byte
	payloads [][]byte
	starts   []int64
}

// buildLayout makes frames of the given payload sizes, filled with
// non-zero bytes so that zeroing any range is damage.
func buildLayout(lead int, sizes ...int) layout {
	l := layout{data: bytes.Repeat([]byte{'M'}, lead)}
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(1 + (i*31+j*7)%255)
		}
		l.payloads = append(l.payloads, p)
		l.starts = append(l.starts, int64(len(l.data)))
		l.data = append(l.data, frame(p)...)
	}
	l.starts = append(l.starts, int64(len(l.data)))
	return l
}

// prefixAfter is the recovery rule stated independently of Scan: the
// valid prefix ends at the start of the first frame that holds a changed
// or missing byte — or, when every original byte survives, at the
// original end (anything after it is not a frame).
func (l layout) prefixAfter(damaged []byte) int64 {
	first := int64(len(l.data))
	for i := range l.data {
		if i >= len(damaged) || damaged[i] != l.data[i] {
			first = int64(i)
			break
		}
	}
	end := l.starts[0]
	for _, s := range l.starts[1:] {
		if first < s {
			break
		}
		end = s
	}
	return end
}

type scanned struct {
	off     int64
	payload []byte
}

func scanAll(t testing.TB, r io.ReaderAt, off, size int64) (int64, []scanned) {
	t.Helper()
	var got []scanned
	end, err := Scan(r, off, size, testMax, func(payloadOff int64, p []byte) error {
		if int64(cap(p)) > size {
			t.Fatalf("payload buffer of %d bytes for a %d-byte file", cap(p), size)
		}
		got = append(got, scanned{payloadOff, append([]byte(nil), p...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return end, got
}

// TestScanDamageTable is the one table of damage shapes for every file
// of frames in the repository: whatever a crash or a dying disk does to
// the file, Scan returns exactly the undamaged prefix and delivers
// exactly its frames.
func TestScanDamageTable(t *testing.T) {
	const lead = 8
	l := buildLayout(lead, 10, 200, 1, testMax, 50, 300)
	last := len(l.payloads) - 1
	overwrite := func(at int64, b ...byte) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(b, at); err != nil {
				t.Fatal(err)
			}
		}
	}
	flip := func(at int64) func(*testing.T, string) { return overwrite(at, l.data[at]^0x04) }
	cut := func(at int64) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			if err := os.Truncate(path, at); err != nil {
				t.Fatal(err)
			}
		}
	}
	grow := func(tail []byte) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
		}
	}
	type tc struct {
		name   string
		damage func(t *testing.T, path string)
		want   int64 // -1: whatever prefixAfter derives from the bytes
	}
	cases := []tc{
		{"intact", func(*testing.T, string) {}, l.starts[last+1]},
		{"cut-mid-header", cut(l.starts[last] + 3), l.starts[last]},
		{"cut-mid-payload", cut(l.starts[2] + HeaderSize), l.starts[2]},
		{"cut-at-frame-boundary", cut(l.starts[4]), l.starts[4]},
		{"bit-flip-length", flip(l.starts[1] + 3), l.starts[1]},
		{"bit-flip-crc", flip(l.starts[3] + 5), l.starts[3]},
		{"bit-flip-payload", flip(l.starts[0] + HeaderSize + 9), l.starts[0]},
		{"zero-length", overwrite(l.starts[2], 0, 0, 0, 0), l.starts[2]},
		{"zero-header", overwrite(l.starts[4], make([]byte, HeaderSize)...), l.starts[4]},
		{"length-garbage", overwrite(l.starts[last], 0xff, 0xff, 0xff, 0xff), l.starts[last]},
		// A well-formed frame one byte over the bound is not data.
		{"valid-frame-over-bound", grow(frame(make([]byte, testMax+1))), l.starts[last+1]},
		{"trailing-garbage", grow([]byte("\x00\x00\x01\x00torn-partial-frame")), l.starts[last+1]},
		{"trailing-zeros", grow(make([]byte, 4096)), l.starts[last+1]},
	}
	// Seeded damage at offsets the table above did not pick by hand.
	inj := faultinject.New(4242)
	for i := uint64(0); i < 8; i++ {
		site := inj.NewSite(i)
		cases = append(cases,
			tc{fmt.Sprintf("seeded-tear-%d", i), func(t *testing.T, path string) {
				if torn, err := site.TearTail(path, lead); err != nil || !torn {
					t.Fatalf("TearTail: %v %v", torn, err)
				}
			}, -1},
			tc{fmt.Sprintf("seeded-bit-flip-%d", i), func(t *testing.T, path string) {
				if hit, err := site.CorruptByte(path, lead); err != nil || !hit {
					t.Fatalf("CorruptByte: %v %v", hit, err)
				}
			}, -1},
			tc{fmt.Sprintf("seeded-zeroed-range-%d", i), func(t *testing.T, path string) {
				if hit, err := site.ZeroRange(path, lead, 64); err != nil || !hit {
					t.Fatalf("ZeroRange: %v %v", hit, err)
				}
			}, -1},
		)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "frames")
			if err := os.WriteFile(path, l.data, 0o644); err != nil {
				t.Fatal(err)
			}
			c.damage(t, path)
			damaged, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := l.prefixAfter(damaged)
			if c.want >= 0 && c.want != want {
				t.Fatalf("table says the prefix ends at %d, the bytes say %d", c.want, want)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			end, got := scanAll(t, f, lead, int64(len(damaged)))
			if end != want {
				t.Fatalf("valid prefix ends at %d, want %d", end, want)
			}
			if len(got) > len(l.payloads) || l.starts[len(got)] != want {
				t.Fatalf("delivered %d frames for a prefix ending at %d", len(got), want)
			}
			for i, g := range got {
				if g.off != l.starts[i]+HeaderSize || !bytes.Equal(g.payload, l.payloads[i]) {
					t.Fatalf("frame %d: delivered %d bytes at %d, want %d at %d",
						i, len(g.payload), g.off, len(l.payloads[i]), l.starts[i]+HeaderSize)
				}
			}
		})
	}
}

func TestScanCallbackErrors(t *testing.T) {
	l := buildLayout(0, 5, 6, 7)
	r := bytes.NewReader(l.data)
	size := int64(len(l.data))
	// ErrCorrupt rejects the frame: a clean stop before it.
	n := 0
	end, err := Scan(r, 0, size, testMax, func(int64, []byte) error {
		if n++; n == 2 {
			return fmt.Errorf("row 3 of frame 2: %w", ErrCorrupt)
		}
		return nil
	})
	if err != nil || end != l.starts[1] {
		t.Fatalf("ErrCorrupt: end %d err %v, want %d and nil", end, err, l.starts[1])
	}
	// Any other error aborts and propagates.
	boom := errors.New("boom")
	end, err = Scan(r, 0, size, testMax, func(int64, []byte) error { return boom })
	if !errors.Is(err, boom) || end != 0 {
		t.Fatalf("callback error: end %d err %v", end, err)
	}
	// A nil callback validates; an offset at or past the size is an empty scan.
	if end, err = Scan(r, 0, size, testMax, nil); err != nil || end != size {
		t.Fatalf("nil callback: end %d err %v", end, err)
	}
	if end, err = Scan(r, size+10, size, testMax, nil); err != nil || end != size+10 {
		t.Fatalf("offset past size: end %d err %v", end, err)
	}
}

// FuzzScan: arbitrary bytes never panic or make Scan allocate more than
// the file holds, the prefix it reports re-scans to the same frames, and
// a valid frame appended at the prefix extends it by exactly that frame.
func FuzzScan(f *testing.F) {
	two := buildLayout(0, 3, 40)
	f.Add(two.data, []byte("next"))
	f.Add(two.data[:len(two.data)-1], []byte{0})
	f.Add([]byte{}, []byte("x"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}, []byte("y"))
	f.Add(make([]byte, 64), bytes.Repeat([]byte{7}, testMax))
	f.Fuzz(func(t *testing.T, data, next []byte) {
		end, got := scanAll(t, bytes.NewReader(data), 0, int64(len(data)))
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("prefix end %d outside the %d-byte input", end, len(data))
		}
		end2, got2 := scanAll(t, bytes.NewReader(data[:end]), 0, end)
		if end2 != end || !reflect.DeepEqual(got, got2) {
			t.Fatalf("re-scan of the prefix: end %d with %d frames, was %d with %d", end2, len(got2), end, len(got))
		}
		if len(next) == 0 || len(next) > testMax {
			return
		}
		grown := append(append([]byte(nil), data[:end]...), frame(next)...)
		end3, got3 := scanAll(t, bytes.NewReader(grown), 0, int64(len(grown)))
		if end3 != int64(len(grown)) || len(got3) != len(got)+1 || !bytes.Equal(got3[len(got)].payload, next) {
			t.Fatalf("appended frame: end %d of %d, %d frames after %d", end3, len(grown), len(got3), len(got))
		}
	})
}

func TestSealMatchesDocumentedLayout(t *testing.T) {
	// The frame spelled out byte by byte, so the codec cannot drift from
	// the format the files on disk already have.
	got := frame([]byte("abc"))
	want := []byte{0, 0, 0, 3, 0x36, 0x4b, 0x3f, 0xb7, 'a', 'b', 'c'}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame(abc) = % x, want % x", got, want)
	}
	// Seal at a non-zero start leaves what precedes the header alone.
	buf := append(AppendHeader([]byte("lead")), "abc"...)
	Seal(buf, 4)
	if !bytes.Equal(buf, append([]byte("lead"), want...)) {
		t.Fatalf("Seal at 4 = % x", buf)
	}
	if binary.BigEndian.Uint32(want[4:]) != Checksum([]byte("abc")) {
		t.Fatal("Checksum disagrees with the CRC32-C test vector")
	}
}

func TestPublishFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target.bin")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	for _, content := range []string{"first", "second, replacing the first"} {
		if err := PublishFile(path, write(content)); err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != content {
			t.Fatalf("published %q, %v; want %q", b, err, content)
		}
	}
	// A failing writer leaves the old file and no temp behind.
	boom := errors.New("boom")
	err := PublishFile(path, func(w io.Writer) error {
		io.WriteString(w, "half")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writer error not propagated: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "second, replacing the first" {
		t.Fatalf("failed publish changed the target: %q", b)
	}
	// So does a rename that cannot happen (the target is a directory).
	if err := PublishFile(dir, write("x")); err == nil {
		t.Fatal("publishing over a directory succeeded")
	}
	for _, d := range []string{dir, filepath.Dir(dir)} {
		entries, _ := os.ReadDir(d)
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".tmp" {
				t.Fatalf("temp file %s left in %s", e.Name(), d)
			}
		}
	}
}

func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".checkpoint-123.tmp", ".checkpoint-0000000000000004.ckpt.99.tmp", ".other.tmp", "checkpoint-1.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	RemoveTemps(dir, "checkpoint-")
	entries, _ := os.ReadDir(dir)
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if want := []string{".other.tmp", "checkpoint-1.tmp"}; !reflect.DeepEqual(left, want) {
		t.Fatalf("left %v, want %v", left, want)
	}
}

func TestListSeq(t *testing.T) {
	dir := t.TempDir()
	if seqs, err := ListSeq(filepath.Join(dir, "nonesuch"), "wal-", ".log"); seqs != nil || err != nil {
		t.Fatalf("missing dir: %v %v", seqs, err)
	}
	for _, name := range []string{
		SeqName("wal-", 10, ".log"), SeqName("wal-", 2, ".log"), SeqName("wal-", 0xabc, ".log"),
		"wal-2.log", "wal-000000000000000g.log", SeqName("wal-", 3, ".ckpt"), SeqName("checkpoint-", 4, ".log"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := ListSeq(dir, "wal-", ".log")
	if err != nil || !reflect.DeepEqual(seqs, []uint64{2, 10, 0xabc}) {
		t.Fatalf("ListSeq = %v, %v", seqs, err)
	}
	if got := SeqName("wal-", 10, ".log"); got != "wal-000000000000000a.log" {
		t.Fatalf("SeqName = %q", got)
	}
}
